"""The uamsim benchmark: closed-loop real-time factor and scheduler throughput.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 30 --trace 0

Builds its inputs from --seed, drives them through uamsim's public API from
the checkout's src/ for --seconds (whole rounds, at least one), checks every
output (checks.py), and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics. --trace 1 runs one round untraced
and the same round again with every layer wrapped (tracing.py), and reports
the per-layer metrics and the tracing overhead. The full result, with the
check figures and the per-function trace summary, goes to
perfbench/results/. See perfbench/README.md.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")    # single-threaded; set before numpy loads

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORKLOADS = ("presets", "soft-noisy", "schedule-stream")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0.0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "uamsim" / "__init__.py").is_file():
        print(f"perfbench: no uamsim sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import uamsim
    if Path(uamsim.__file__).resolve().parent != (SRC / "uamsim").resolve():
        print(f"perfbench: imported uamsim from {uamsim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import bench

    run = bench.run_stream if args.workload == "schedule-stream" else bench.run_loop
    metrics, attempted, failed, problems, detail, tr = run(args)

    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    RESULTS.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, problems=problems,
                  **detail)
    if tr is not None:
        record["trace_summary"] = tr.summary()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
