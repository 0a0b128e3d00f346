"""Norm evaluators: Euclidean, and the convex body glued from an upward and a
downward paraboloid cap (x_d = +-(1 - |x'|^2), joined at the ridge |x'| = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParameterError

EUCLIDEAN = "euclidean"
PARABOLOID_BODY = "paraboloid_body"
_KINDS = (EUCLIDEAN, PARABOLOID_BODY)

NOT_ON = "not_on"
UPPER = "upper"
LOWER = "lower"
RIDGE = "ridge"


@dataclass(frozen=True)
class Gauge:
    """Evaluator for the Minkowski functional ||x|| = inf{t > 0 : x/t in B}."""

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown gauge kind {self.kind!r}")
        if self.dim < 2:
            raise ParameterError(f"gauge dim must be >= 2, got {self.dim}")


def gauge_values(g: Gauge, diffs: np.ndarray) -> np.ndarray:
    """Vectorized gauge of the vectors in the last axis of ``diffs``.

    For the paraboloid body the ray from the origin through x exits through
    the cap on the side of sign(x_d), where x_d/t = 1 - |x'|^2/t^2 solves to
    t = (|x_d| + sqrt(x_d^2 + 4|x'|^2)) / 2; at x_d = 0 this reduces to |x'|,
    the ridge radius.
    """
    diffs = np.asarray(diffs, dtype=np.float64)
    if diffs.shape[-1] != g.dim:
        raise InputError(f"expected vectors of length {g.dim}, got {diffs.shape[-1]}")
    if g.kind == EUCLIDEAN:
        return np.sqrt(np.einsum("...k,...k->...", diffs, diffs))
    r2 = np.einsum("...k,...k->...", diffs[..., :-1], diffs[..., :-1])
    return _body_gauge(np.asarray(r2), np.abs(diffs[..., -1]))[()]  # [()]: a scalar for one vector


def _body_gauge(r2: np.ndarray, a) -> np.ndarray:
    """The paraboloid body's gauge 0.5 * (a + sqrt(a^2 + 4 r2)) of x with
    |x'|^2 = r2 and |x_d| = a, written over the float64 array r2."""
    r2 *= 4.0
    r2 += a * a
    np.sqrt(r2, out=r2)
    r2 += a
    r2 *= 0.5
    return r2


def gauge_value(g: Gauge, x) -> float:
    """Gauge of a single vector. Raises InputError on non-finite input."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (g.dim,):
        raise InputError(f"expected a vector of length {g.dim}")
    if not np.all(np.isfinite(arr)):
        raise InputError("gauge_value requires finite coordinates")
    return float(gauge_values(g, arr[np.newaxis, :])[0])


def on_surface_exact(n: int, d: int, di) -> str:
    """Classify an integer index-difference vector of two Valtr grid points
    against the unit surface of the paraboloid body, in pure integer
    arithmetic.

    ``di = (D_1, ..., D_{d-1}, D_d)`` encodes the difference vector
    (D_1/n, ..., D_{d-1}/n, D_d/n^2). With S = sum of D_j^2 over j < d:
    ridge iff D_d = 0 and S = n^2; upper iff D_d = n^2 - S > 0; lower iff
    D_d = S - n^2 < 0. The sign conditions restrict each cap to its own
    half-space, so a classified vector always has gauge exactly 1.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ParameterError(f"n must be a positive integer, got {n!r}")
    if not (isinstance(d, int) and d >= 2):
        raise ParameterError(f"d must be an integer >= 2, got {d!r}")
    parts = tuple(di)
    if len(parts) != d or not all(isinstance(v, (int, np.integer)) for v in parts):
        raise InputError(f"di must be {d} integers")
    n2 = n * n
    s = sum(int(v) * int(v) for v in parts[:-1])
    dd = int(parts[-1])
    if dd == 0 and s == n2:
        return RIDGE
    if dd > 0 and dd == n2 - s:
        return UPPER
    if dd < 0 and dd == s - n2:
        return LOWER
    return NOT_ON
