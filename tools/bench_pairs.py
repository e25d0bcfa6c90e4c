"""Compare two checkouts on one workload with alternating pairs of benchmark runs.

    python3 tools/bench_pairs.py BASE_DIR CHANGE_DIR --workload presets \
        --seeds 901-910 [--seconds 30]

For each seed, runs each checkout's own perfbench/run.py (unchanged, at
--trace 0) once, the two runs back to back; the checkout that goes first
alternates from one seed to the next, so a drift in the machine's speed
hits both alike. Prints every run's end-to-end metrics per seed, then for
each metric the medians and quartiles of both checkouts, the ratio of the
medians, and the number of pairs the change won (by the direction that
BENCHMARK.json gives the metric). Each metric's line ends with a verdict:
`gain` when the change won at least 9 in 10 pairs and the gap between the
medians exceeds the base's quartile spread, `worse than bound` when the
change's median is worse than the base's by more than the metric's
BENCHMARK.json bound (a fraction of the base median), and `unresolved`
otherwise. Exits nonzero if any run reports that its outputs are not
correct or that an operation failed.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def bench(checkout: Path, workload: str, seed: int, seconds: float,
          trace: int) -> dict:
    """One run of the checkout's perfbench/run.py; its JSON result. Exits,
    with the run's exit code and stderr, if the run crashed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n"
                 f"{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=seed_range,
                   help="one seed per pair, as FIRST-LAST or a single seed")
    p.add_argument("--seconds", type=float, default=30.0)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sides = {"base": args.base, "change": args.change}
    values = {side: {name: [] for name in better} for side in sides}
    bad = []
    for k, seed in enumerate(args.seeds):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        for side in order:
            res = bench(sides[side], args.workload, seed, args.seconds, 0)
            if not res["correct"] or res["failed"]:
                bad.append(f"{side} seed {seed}: correct={res['correct']} "
                           f"failed={res['failed']}")
            for name in better:
                values[side][name].append(res["metrics"][name]["value"])
        print(f"seed {seed} ({order[0]} first): " + ", ".join(
            f"{name} {values['base'][name][-1]:.4g} -> "
            f"{values['change'][name][-1]:.4g}" for name in better), flush=True)

    n = len(args.seeds)
    print(f"\n{args.workload}, {n} pairs, {args.seconds:g} s runs")
    for name, direction in better.items():
        base, change = values["base"][name], values["change"][name]
        (b1, bm, b3), (c1, cm, c3) = quartiles(base), quartiles(change)
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - b) > 0.0 for b, c in zip(base, change))
        if 10 * wins >= 9 * n and sign * (cm - bm) > b3 - b1:
            verdict = "gain"
        elif sign * (cm - bm) < -bound[name] * abs(bm):
            verdict = "worse than bound"
        else:
            verdict = "unresolved"
        print(f"{name}: base median {bm:.4g} (quartiles {b1:.4g}-{b3:.4g}), "
              f"change median {cm:.4g} ({c1:.4g}-{c3:.4g}), "
              f"ratio {cm / bm if bm else math.nan:.3f}, "
              f"change better in {wins} of {n}, "
              f"median gap {abs(cm - bm):.4g} vs base quartile spread "
              f"{b3 - b1:.4g}: {verdict}")
    for line in bad:
        print(f"NOT CORRECT: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
