"""Spans around calls into incidence_lab's layers, recorded from outside the
package.

``Tracer.install`` replaces every public function of the layer modules with
a wrapper: in its defining module, in every package module that imported
the name (``incidence_lab.harness.annulus_incidences`` and the like), and on
``PointSet.to_floats``. A span records name, start, end, parent span and
operation id; spans stay in memory until the run writes them out.

The gauge module is not wrapped. Its functions run only inside incidence
kernels, per chunk and on worker threads, so its time counts as incidence
self time until the program records spans of its own.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("pointsets", "incidence", "energy", "latticecount", "ffield", "harness", "cli")


def _work(name: str, args: dict, result) -> dict:
    """Work counters of one call, read from its arguments and result."""
    if name.startswith("pointsets.gen_") and hasattr(result, "n_points"):
        return {"points": result.n_points}
    if name == "pointsets.PointSet.to_floats":
        pset = args["self"]
        big_axes = sum(1 for den in pset.denominators if den >= 2**53)
        return {"coords": pset.n_points * pset.dim, "bigint_coords": pset.n_points * big_axes}
    if name.startswith("incidence.annulus_incidences"):
        pset, g = args["P"], args["g"]
        key = (pset.label, pset.n_points, pset.denominators, g.kind, float(args["t"]), float(args["eps"]))
        return {"pairs": pset.n_points * (pset.n_points - 1), "key": repr(key)}
    if name.startswith("incidence.exact_valtr_incidences"):
        key = ("valtr", args["n"], args["d"], "paraboloid_body", 1.0, 0.0, tuple(result.caps))
        return {"pairs": result.n_points * (result.n_points - 1), "key": repr(key)}
    if name.startswith("incidence.falconer_measure_ratio"):
        key = ("valtr", args["n"], args["d"], "paraboloid_body", 1.0, result.eps)
        return {"pairs": result.n_points * (result.n_points - 1), "key": repr(key)}
    if name == "energy.adaptability_sum":
        return {"pairs": result.n_points * (result.n_points - 1)}
    if name.startswith("ffield.ff_pair_count"):
        return {"pairs": args["E"].size ** 2}
    if name == "harness.run_experiment":
        return {"experiment": args["experiment"]}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op_id: int | None = None
        self._local = threading.local()

    now = staticmethod(time.monotonic)

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def adopt(self, name: str, start: float, end: float, span_file: Path) -> None:
        """Record the span of a traced CLI process and, under it, the spans
        its child wrote to ``span_file``. CLOCK_MONOTONIC is shared between
        processes, so the child's times need no shift."""
        stack = self._stack()
        parent = len(self.spans)
        self.spans.append({"id": parent, "name": name, "start": start, "end": end,
                           "parent": stack[-1] if stack else None, "op": self.op_id, "work": {}})
        try:
            child = json.loads(span_file.read_text(encoding="utf-8"))
            span_file.unlink()
        except FileNotFoundError:
            return
        for sp in child:
            sp["id"] += parent + 1
            sp["parent"] = parent if sp["parent"] is None else sp["parent"] + parent + 1
            sp["op"] = self.op_id
            self.spans.append(sp)

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        has_method = "method" in sig.parameters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = len(self.spans)
            span = {"id": span_id, "name": name, "start": 0.0, "end": 0.0,
                    "parent": stack[-1] if stack else None, "op": self.op_id, "work": {}}
            self.spans.append(span)
            stack.append(span_id)
            span["start"] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                stack.pop()
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            if has_method:
                span["name"] = f"{name}[{bound.arguments['method']}]"
            span["work"] = _work(span["name"], bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer module, wherever the
        package holds a reference to them."""
        import incidence_lab.cli  # noqa: F401  (the package does not import it)
        from incidence_lab.pointsets import PointSet

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"incidence_lab.{layer}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "incidence_lab" or mod_name.startswith("incidence_lab."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                        setattr(mod, attr, wrappers[id(obj)][1])
        PointSet.to_floats = self._wrap("pointsets.PointSet.to_floats", PointSet.to_floats)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its children cover. Children of one
    span run one after another on its thread, so their durations add."""
    child = defaultdict(float)
    for sp in spans:
        if sp["parent"] is not None:
            child[sp["parent"]] += sp["end"] - sp["start"]
    return {sp["id"]: sp["end"] - sp["start"] - child[sp["id"]] for sp in spans}


def layer_metrics(spans: list[dict], traced_wall: float) -> dict[str, float]:
    """Per-layer self times, work counters and ratios from one traced pass
    set. ``traced_wall`` is the summed wall time of the traced passes; the
    part no span covers is the benchmark's own loop (``bench.self_s``)."""
    own = self_times(spans)
    by_id = {sp["id"]: sp for sp in spans}
    out: dict[str, float] = defaultdict(float)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0

    def in_layer_ancestor(sp, prefix):
        p = sp["parent"]
        while p is not None:
            if by_id[p]["name"].startswith(prefix):
                return True
            p = by_id[p]["parent"]
        return False

    keys, calls = set(), 0
    process, main = [], []
    for sp in spans:
        name, dt, work = sp["name"], own[sp["id"]], sp["work"]
        layer = name.split(".")[0]
        out[f"{layer}.self_s"] += dt
        if name.startswith("pointsets.gen_"):
            out["pointsets.generate_s"] += dt
            out["pointsets.points"] += work.get("points", 0)
        elif name == "pointsets.PointSet.to_floats":
            out["pointsets.to_floats_s"] += dt
            out["pointsets.to_floats_bytes"] += 8 * work["coords"]
            out["_coords"] += work["coords"]
            out["_bigint_coords"] += work["bigint_coords"]
        elif name.startswith("incidence."):
            if name == "incidence.annulus_incidences[brute]":
                out["incidence.annulus_brute_s"] += dt
            elif name == "incidence.annulus_incidences[grid]":
                out["incidence.annulus_grid_s"] += dt
            elif name.startswith("incidence.falconer_measure_ratio"):
                out["incidence.falconer_s"] += dt
            elif name.startswith("incidence.exact_valtr_incidences"):
                out["incidence.exact_valtr_s"] += dt
            if "key" in work and not in_layer_ancestor(sp, "incidence."):
                calls += 1
                keys.add(work["key"])
                out["incidence.pairs"] += work["pairs"]
        elif name == "energy.adaptability_sum":
            out["energy.adaptability_s"] += dt
            out["energy.pairs"] += work["pairs"]
        elif name == "latticecount.ball_count":
            out["latticecount.ball_count_s"] += dt
            out["latticecount.ball_count_calls"] += 1
        elif name == "latticecount.shell_count":
            out["latticecount.shell_count_s"] += dt
        elif name in ("ffield.ff_sphere", "ffield.ff_paraboloid", "ffield.sharpness_set"):
            out["ffield.build_s"] += dt
        elif name == "ffield.ff_pair_count[brute]":
            out["ffield.pair_count_s"] += dt
            out["ffield.pairs"] += work["pairs"]
        elif name in ("ffield.ff_fourier", "ffield.ff_pair_count[fourier]"):
            out["ffield.fourier_s"] += dt
            out["ffield.pairs"] += work.get("pairs", 0)
        elif name == "harness.run_experiment":
            out[f"harness.scan.{work['experiment']}_s"] += sp["end"] - sp["start"]
        elif name == "harness.fit_exponent":
            out["harness.fit_s"] += dt
        elif name == "harness.emit":
            out["harness.emit_s"] += dt
        elif name == "cli.process":
            process.append(sp["end"] - sp["start"])
        elif name == "cli.main":
            main.append(sp["end"] - sp["start"])
    out["incidence.calls"] = calls
    out["incidence.unique_ratio"] = len(keys) / calls if calls else 0.0
    inc_s = out["incidence.self_s"]
    out["incidence.pairs_per_s"] = out["incidence.pairs"] / inc_s if inc_s > 0 else 0.0
    en_s = out["energy.adaptability_s"]
    out["energy.pairs_per_s"] = out["energy.pairs"] / en_s if en_s > 0 else 0.0
    coords = out.pop("_coords", 0)
    big = out.pop("_bigint_coords", 0)
    out["pointsets.bigint_coord_share"] = big / coords if coords else 0.0
    if process:
        out["cli.process_ms"] = 1000 * statistics.median(process)
        out["cli.main_ms"] = 1000 * statistics.median(main)
        out["cli.startup_ms"] = out["cli.process_ms"] - out["cli.main_ms"]
    top = sum(sp["end"] - sp["start"] for sp in spans if sp["parent"] is None)
    out["bench.self_s"] = traced_wall - top
    return dict(out)
