"""Run one demoplan benchmark workload and print its metrics.

    python3 perfbench/run.py --workload plan_deep --seed 7 --seconds 35 --trace 0

The program is imported from ``src/`` next to this directory and runs
in this one process with numpy/BLAS pinned to one thread. Set-up runs
several times first; then whole passes of the workload run until
``--seconds`` have elapsed since the first set-up began, and every
output is checked. Each operation's and each set-up's time is scaled
to a reference host pace (see pace.py); timings take the median of
each operation's scaled times over the run and the median scaled
set-up time. With ``--trace 0`` the end-to-end metrics are printed;
with ``--trace 1`` passes alternate untraced and traced, and the
per-layer self times of the set-ups and traced passes and the tracing
overhead (operations' median scaled times, traced over untraced) are
printed instead; the benchmark's own checks are never traced. The last
line of standard output is one JSON object. The
exit code is 0 when every check passed.
"""

from __future__ import annotations

import os

# Pinned before numpy is first imported, which reads these once.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference_seed7.json"  # written by make_reference.py

sys.path.insert(0, str(SRC))

# Passes per run even when --seconds is shorter than one pass, so a traced
# run always has an untraced pass to compare against.
MIN_PASSES = 2

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "greedy_gap_pct": "%",
}

# Spans whose mean self time per call is reported as <span>_ms.
LAYER_SPANS = (
    "synthgen.generate",
    "trace.write",
    "trace.read",
    "grounding.ground_trace",
    "segmentation.segment",
    "oplearn.learn_from_demo",
    "oplearn.assign_costs",
    "oplearn.repair_exclusivity",
    "pddl.emit_domain",
    "pddl.emit_problem",
    "pddl.parse",
    "model.library_to_json",
    "model.library_from_json",
    "planner.ground",
    "planner.solve_min_cost",
    "planner.solve_min_length",
    "planner.solve_greedy",
    "planner.validate",
)

# Counts reported per call of the span they are counted at: count → span.
LAYER_COUNTS = {
    "trace.frames": "trace.read",
    "segmentation.segments": "segmentation.segment",
    "oplearn.observations": "oplearn.learn_from_demo",
    "oplearn.configurations": "oplearn.repair_exclusivity",
    "planner.ground_actions": "planner.ground",
}

PER_LAYER = {
    **{f"{span}_ms": "ms" for span in LAYER_SPANS},
    **{name: "count" for name in LAYER_COUNTS},
    "grounding.us_per_frame": "us",
    "tracing.overhead_pct": "%",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("learn_corpus", "plan_deep", "plan_many"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "demoplan").glob("*.py")))


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def layer_metrics(tracer, overhead_pct: float) -> dict[str, float]:
    """Mean self time and mean count per call of each layer's spans."""
    times = tracer.self_times()
    out: dict[str, float] = {}
    for span in LAYER_SPANS:
        total, calls = times.get(span, (0.0, 0))
        out[f"{span}_ms"] = 1000.0 * total / calls if calls else 0.0
    for count, span in LAYER_COUNTS.items():
        calls = times.get(span, (0.0, 0))[1]
        out[count] = tracer.counts[count] / calls if calls else 0.0
    frames = tracer.counts["grounding.frames"]
    out["grounding.us_per_frame"] = (
        1e6 * times.get("grounding.ground_trace", (0.0, 0))[0] / frames if frames else 0.0
    )
    out["tracing.overhead_pct"] = overhead_pct
    return out


def run(args: argparse.Namespace, reference: dict) -> tuple[dict, int, int, list[str]]:
    """One benchmark run: (metric values, attempted, failed, failure reasons)."""
    import workloads
    from pace import Pacer
    from tracer import Tracer

    size = workloads.FULL
    tracer = Tracer(bool(args.trace))
    setup_seconds: list[float] = []
    setup_wall: list[float] = []

    def set_up(tmp: str):
        workload = workloads.WORKLOADS[args.workload](
            args.seed, size, Path(tmp) / f"setup_{len(setup_seconds)}", reference
        )
        tracer.enabled = bool(args.trace)
        pacer = Pacer()
        workload.setup(tracer, pacer)
        tracer.enabled = False
        setup_seconds.append(pacer.paced)
        setup_wall.append(pacer.wall)
        return workload

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        started = time.perf_counter()
        workload = set_up(tmp)
        # Checks are the benchmark's own work: only set-ups and timed
        # passes are traced.
        workload.check_setup(tracer)

        # Later set-ups only time set-up again; their inputs are unused.
        while len(setup_seconds) < size.setups:
            set_up(tmp)

        # Each operation's times, untraced and traced.
        paced: dict[bool, dict[str, list[float]]] = {False: {}, True: {}}
        wall: dict[str, list[float]] = {}
        pass_failures: list[dict[str, str]] = []
        pass_keys: list[list[str]] = []
        # A pass starts only if it should end within --seconds, judging
        # by the last one, so a run overruns little.
        last_pass = 0.0
        while len(pass_failures) < MIN_PASSES or time.perf_counter() - started + last_pass < args.seconds:
            pass_start = time.perf_counter()
            traced = bool(args.trace) and len(pass_failures) % 2 == 1
            tracer.enabled = traced
            records = workload.run_pass(tracer, Pacer())
            tracer.enabled = False
            for record in records:
                paced[traced].setdefault(record.key, []).append(record.paced)
                wall.setdefault(record.key, []).append(record.seconds)
            pass_keys.append([record.key for record in records])
            pass_failures.append(workload.check(records, tracer))
            last_pass = time.perf_counter() - pass_start
        for key, reason in workload.final_check(records, tracer).items():
            pass_failures[-1].setdefault(key, reason)

    # A query repeated within a pass is attempted, and fails, each time.
    attempted = sum(len(keys) for keys in pass_keys)
    reasons = list(workload.setup_errors)
    if workload.setup_errors:
        failed = attempted
    else:
        failed = sum(k in f for keys, f in zip(pass_keys, pass_failures) for k in keys)
        reasons += [f"{k}: {why}" for f in pass_failures for k, why in sorted(f.items())]

    if args.trace:
        medians = {t: {k: statistics.median(v) for k, v in paced[t].items()} for t in paced}
        traced = sum(medians[True].values())
        overhead = 100.0 * (traced / sum(medians[False][k] for k in medians[True]) - 1.0)
        metrics = layer_metrics(tracer, overhead)
        tracer.write(OUT_DIR / f"spans_{args.workload}_seed{args.seed}.jsonl")
    else:
        gaps = workload.gaps()
        costs = [statistics.median(times) for times in paced[False].values()]
        metrics = {
            "setup_s": statistics.median(setup_seconds),
            "ops_per_s": len(costs) / sum(costs),
            "op_p50_ms": 1000.0 * quantile(costs, 50),
            "op_p90_ms": 1000.0 * quantile(costs, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "greedy_gap_pct": statistics.fmean(gaps) if gaps else 0.0,
        }
        print(
            f"# {len(setup_seconds)} set-ups; {len(costs)} operations, each timed at least"
            f" once in each of {len(pass_keys)} passes, {attempted} samples;"
            f" {len(gaps)} instances in the greedy gap"
        )
        walls = [statistics.median(times) for times in wall.values()]
        print(
            f"# unpaced median wall times: set-up {statistics.median(setup_wall):.4f} s,"
            f" {len(walls) / sum(walls):.4f} ops/s, p50 {1000.0 * quantile(walls, 50):.4f} ms,"
            f" p90 {1000.0 * quantile(walls, 90):.4f} ms"
        )
    return metrics, attempted, failed, reasons


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "demoplan" / "__init__.py").is_file():
        print(f"error: no demoplan sources under {SRC}", file=sys.stderr)
        return 2
    import numpy

    print(
        f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace};"
        f" python {platform.python_version()}, numpy {numpy.__version__},"
        f" nproc {os.cpu_count()}, src lines {src_line_count()}"
    )
    metrics, attempted, failed, reasons = run(args, json.loads(REFERENCE.read_text()))

    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:14.4f} {unit}")
    print(f"{'failed_share':34s} {failed / attempted:14.4f} share ({failed}/{attempted})")
    for reason in reasons[:20]:
        print(f"check failed: {reason}", file=sys.stderr)
    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
