"""incidence-lab benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload is a closed loop with one client in this process: a pass runs
the workload's operations one after another, in an order drawn from the
seed, and passes repeat while the next one is expected to end nearer to S
seconds than the passes so far (at least one pass). Every output is then
checked against an exact reference, untimed, and the known defects are
probed once, untimed.

Times are scaled to a reference host speed: a short fixed calibration loop
runs after every operation, and wall_s is multiplied by CAL_REF_S over the
median calibration time. Each setup probe is followed by a fresh interpreter
that imports standard-library modules only, and setup_s is multiplied by
SPAWN_REF_S over the median time of those. The raw times and the scales are
printed in the report as well.

--trace 0 prints the end-to-end metrics: setup_s, wall_s (median pass) and
peak_rss_mb. --trace 1 spends half of S on untraced passes and
half on passes with layer spans, and prints the per-layer metrics. The last
line of standard output is one JSON object with keys correct, attempted,
failed and metrics. See perfbench/README.md for the design.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 11
PROBE = "import time, incidence_lab, incidence_lab.cli; print(repr(time.monotonic()))"
# A fresh interpreter that imports standard-library modules only, nothing of
# the package or NumPy: it tracks the host's cost of starting a process and
# importing, against which setup_s is scaled.
SPAWN_CAL = ("import time, json, decimal, email.parser, http.client, xml.dom.minidom, unittest,"
             " argparse, fractions, statistics; print(repr(time.monotonic()))")
SPAWN_REF_S = 0.110  # about the median SPAWN_CAL time on the reference host in its faster speed mode
# about the median calibrate() time on the reference host (2 vCPUs) in its faster speed mode
CAL_REF_S = 0.0050
CAL_EVERY_S = 0.25  # one calibration per this much operation time, so long operations weigh more


def metric_units(section: str) -> dict[str, str]:
    """Metric names and units of one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def calibrate(samples: list) -> None:
    """Append the time of a fixed mix of interpreter work and one NumPy pass
    over a freshly allocated 16 MiB array, about half each. The host this
    benchmark was tuned on switches between speed modes about 1.6x apart for
    seconds to minutes at a time; the median of a run's samples tracks the
    mode the run saw."""
    t0 = time.monotonic()
    acc = 0
    for i in range(30_000):
        acc += i * i
    float(np.ones(1 << 21).sum())
    samples.append(time.monotonic() - t0)


@dataclass
class Passes:
    walls: list = field(default_factory=list)  # per pass: sum of operation latencies
    calibrations: list = field(default_factory=list)  # calibrate() times, see run_passes
    cpu_s: float = 0.0  # user + system time of this process and its children, in operations

    @property
    def scale(self) -> float:
        """Factor that converts this run's times to the reference speed."""
        return CAL_REF_S / statistics.median(self.calibrations)


def spawn_seconds(code: str, env: dict) -> float:
    """Time from spawning a fresh interpreter until it has run ``code``,
    which prints the monotonic clock as it ends. CLOCK_MONOTONIC is shared
    between processes."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.strip()) - start


def run_passes(ops, order, budget: float, results: list, tracer=None, span_ranges=None) -> Passes:
    """Closed-loop passes while the next one is expected to end nearer to
    ``budget`` seconds than the passes so far have. Appends (op, output,
    error, latency) to ``results`` and, when tracing, each pass's slice of
    ``tracer.spans`` to ``span_ranges``. A long operation is followed by one
    calibration per CAL_EVERY_S it took, so it weighs in the scale as much
    as it lasts."""
    passes, elapsed = Passes(), []
    start = time.monotonic()
    while True:
        todo = list(ops)
        order.shuffle(todo)
        first_span = len(tracer.spans) if tracer is not None else 0
        t0 = time.monotonic()
        wall = 0.0
        for op in todo:
            if tracer is not None:
                tracer.op_id = len(results)
            c0, o0 = os.times(), time.monotonic()
            try:
                out, err = op.run(tracer), None
            except Exception:  # a failed operation is counted, not fatal
                out, err = None, traceback.format_exc(limit=2).strip().splitlines()[-1]
            latency, c1 = time.monotonic() - o0, os.times()
            for _ in range(1 + int(latency / CAL_EVERY_S)):
                calibrate(passes.calibrations)
            wall += latency
            passes.cpu_s += sum(c1[:4]) - sum(c0[:4])
            results.append((op, out, err, latency))
        end = time.monotonic()
        passes.walls.append(wall)
        elapsed.append(end - t0)
        if tracer is not None:
            span_ranges.append((first_span, len(tracer.spans)))
        if end - start + statistics.median(elapsed) / 2 > budget:
            return passes


def check_results(results) -> tuple[int, list[str], list[str]]:
    """(failed operations, failure lines, scan verdict lines)."""
    failed, lines, verdicts = 0, [], {}
    for op, out, err, _ in results:
        errs = [f"raised {err}"] if err else op.check(out)
        if errs:
            failed += 1
            line = f"FAILED {op.name}: " + "; ".join(errs)
            if line not in lines:
                lines.append(line)
        verdict = getattr(out, "verdict", None)
        if verdict is not None:
            verdicts[op.name] = f"verdict {op.name}: {verdict} (slope {out.fitted_slope:.3f}, predicted {out.predicted:.3f})"
    return failed, lines, list(verdicts.values())


def probe_defects(ops) -> list[str]:
    """Run each known-defect operation once, untimed, and say whether the
    defect still reproduces. These operations are not part of any workload
    and do not count in attempted, failed or correct."""
    lines = []
    for op in ops:
        try:
            errs = op.check(op.run(None))
        except Exception:
            errs = ["raised " + traceback.format_exc(limit=2).strip().splitlines()[-1]]
        if errs:
            lines.append(f"KNOWN DEFECT reproduces, {op.name}: " + "; ".join(errs))
        else:
            lines.append(f"known defect no longer reproduces, {op.name}: output is now correct")
    return lines


def percentile_with_tail(values: list[float], q: int) -> float | None:
    """The q-th percentile, or None unless at least ten samples lie above it."""
    cut = statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else None
    if cut is None or sum(v > cut for v in values) < 10:
        return None
    return cut


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "incidence_lab" / "__init__.py").is_file():
        print(f"error: {SRC / 'incidence_lab'} not found; run from a checkout of incidence-lab", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import exact
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    is_cli = args.workload == "cli"
    # separate streams, so that the inputs do not depend on how many passes fit
    ops = workloads.WORKLOADS[args.workload](random.Random(args.seed))
    order = random.Random(f"order-{args.seed}")
    results: list = []
    report: list[str] = []

    if args.trace == 0:
        passes = run_passes(ops, order, args.seconds, results)
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF)
        setups, spawns = [], []
        for _ in range(SETUP_PROBES):
            setups.append(spawn_seconds(PROBE, workloads.cli_env()))
            spawns.append(spawn_seconds(SPAWN_CAL, workloads.cli_env()))
        latencies = [r[3] for r in results]
        wall, scale = statistics.median(passes.walls), passes.scale
        setup, setup_scale = statistics.median(setups), SPAWN_REF_S / statistics.median(spawns)
        metrics = {
            "setup_s": setup * setup_scale,
            "wall_s": wall * scale,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }
        report.append(f"passes {len(passes.walls)}, operations {len(latencies)}, setup probes {len(setups)}")
        report.append(f"raw medians: wall {wall:.4f} s, setup {setup:.4f} s; wall scale {scale:.4f}"
                      f" from {len(passes.calibrations)} calibrations, setup scale {setup_scale:.4f}")
        report.append(f"op_p50_ms {1000 * statistics.median(latencies):.3f} ms (raw)")
        p90 = percentile_with_tail(latencies, 90)
        report.append(f"op_p90_ms {f'{1000 * p90:.3f} ms' if p90 else 'not reported: fewer than ten samples above p90'}")
        units = metric_units("end_to_end")
    else:
        untraced = run_passes(ops, order, args.seconds / 2, results)
        tracer = spans.Tracer()
        tracer.install()
        ranges: list = []
        traced = run_passes(ops, order, args.seconds / 2, results, tracer, ranges)
        per_pass = [spans.layer_metrics(tracer.spans[a:b], wall) for (a, b), wall in zip(ranges, traced.walls)]
        names = {k for p in per_pass for k in p}
        layers = {k: statistics.fmean(p.get(k, 0.0) for p in per_pass) for k in names}
        untraced_wall = statistics.median(untraced.walls) * untraced.scale
        overhead = statistics.median(traced.walls) * traced.scale / untraced_wall - 1.0
        layers["process.cpu_per_wall"] = untraced.cpu_s / sum(untraced.walls)
        layers["trace.overhead_ratio"] = overhead
        OUT_DIR.mkdir(exist_ok=True)
        span_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(span_path)
        self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        self_scaled = self_sum * traced.scale
        report.append(f"untraced passes {len(untraced.walls)}, traced passes {len(traced.walls)};"
                      f" spans in {span_path.relative_to(ROOT)}")
        report.append("per-layer, mean of the traced passes (self times are raw and exclude child spans):")
        report += [f"  {k} {v:.6g}" for k, v in sorted(layers.items())]
        report.append(f"sum of self times {self_sum:.4f} s = traced raw wall; scaled {self_scaled:.4f} s;"
                      f" / (1 + overhead) = {self_scaled / (1 + overhead):.4f} s"
                      f" against untraced wall_s {untraced_wall:.4f} s")
        units = metric_units("per_layer")
        metrics = {k: layers.get(k, 0.0) for k in units}

    failed, failures, verdicts = check_results(results)
    self_test = exact.self_test(random.Random(f"self-test-{args.seed}"))
    attempted = len(results)
    report.append(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)")
    report += failures + self_test + verdicts
    report += probe_defects(workloads.known_defects())
    for line in report:
        print(line)
    result = {
        "correct": failed == 0 and not self_test,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
