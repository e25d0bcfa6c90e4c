"""Command line front end: run scenarios, compute metrics, export regions."""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import sys

from . import harness
from . import scheduler as sched
from .scheduler import GainBox


def _load(ref: str, seed, duration) -> harness.Scenario:
    """A preset name or scenario JSON path, with --seed/--duration applied."""
    overrides = {k: v for k, v in (("seed", seed), ("duration", duration))
                 if v is not None}
    if os.path.exists(ref):
        return harness.Scenario.from_json(ref, **overrides)
    return harness.preset(ref, **overrides)


def _run_one(sc: harness.Scenario, out_dir: str) -> dict:
    log = harness.run(sc)
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, sc.name)
    log.write_csv(base + "_log.csv")
    log.write_events_csv(base + "_events.csv")
    m = harness.metrics(log)
    with open(base + "_metrics.txt", "w") as fh:
        fh.write(harness.metrics_text(m))
    return m


def cmd_run(args) -> int:
    m = _run_one(_load(args.scenario, args.seed, args.duration), args.out)
    for line in harness.metrics_text(m).splitlines():
        print(line)
    print(f"wrote logs to {args.out}")
    return 0


def cmd_metrics(args) -> int:
    log = harness.RunLog.read_csv(args.log, args.events)
    print(harness.metrics_text(harness.metrics(log, args.settle_window)), end="")
    return 0


def cmd_bench(args) -> int:
    res = harness.bench_scheduler(args.N, reps=args.reps)
    os.makedirs(args.out, exist_ok=True)
    harness.write_bench_csv(res, os.path.join(args.out, "bench_scheduler.csv"))
    for N, tg, te in res["rows"]:
        print(f"N={N:4d}  grid={tg * 1e3:9.3f} ms  explicit={te * 1e3:9.3f} ms  "
              f"speedup={tg / te:8.1f}x")
    print(f"grid scaling exponent: {res['grid_exponent']:.3f}")
    return 0


def cmd_region_export(args) -> int:
    box = GainBox(args.k_f_min, args.k_f_max, args.b_f_min, args.b_f_max)
    os.makedirs(args.out, exist_ok=True)
    for cond in (sched.NS1, sched.NS2, sched.NS3):
        reg = sched.region_explicit(cond, args.k_p, args.k_d, args.k_e,
                                    args.b_e, args.m_t, box)
        harness.write_region_csv(reg, os.path.join(args.out, f"{cond}_polygon.csv"))
        bm = sched.region_grid(cond, args.k_p, args.k_d, args.k_e, args.b_e,
                               args.m_t, box, args.N)
        harness.write_bitmap_csv(bm, os.path.join(args.out, f"{cond}_grid.csv"))
        print(f"{cond}: area={reg.area:.4f} vertices={len(reg.vertices)} "
              f"grid_hits={int(bm.sum())}")
    return 0


def cmd_sweep(args) -> int:
    scs = [_load(ref, args.seed, args.duration) for ref in args.scenarios]
    names = [sc.name for sc in scs]
    clash = sorted({n for n in names if names.count(n) > 1})
    if clash:
        print("sweep: scenarios share a name and would overwrite each other's "
              f"files: {', '.join(clash)}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    # the executor starts all of its workers at once
    workers = min(args.jobs or os.cpu_count() or 1, len(scs))
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
        futs = {ex.submit(_run_one, sc, args.out): sc.name for sc in scs}
        for fut in concurrent.futures.as_completed(futs):
            name = futs[fut]
            m = fut.result()
            rms = m.get("force_rms", float("nan"))
            print(f"{name}: force_rms={rms}")
    return 0


def _at_least_one(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="uamsim",
                                description="aerial-manipulator contact "
                                            "motion/force control simulator")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("run", help="run one scenario and write CSV logs")
    q.add_argument("scenario", help="preset name or scenario JSON path")
    q.add_argument("--out", default="out")
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--duration", type=float, default=None)
    q.set_defaults(func=cmd_run)

    q = sub.add_parser("metrics", help="recompute metrics from a log CSV")
    q.add_argument("log")
    q.add_argument("--events", default=None)
    q.add_argument("--settle-window", type=float, default=3.0)
    q.set_defaults(func=cmd_metrics)

    q = sub.add_parser("bench-scheduler", help="grid vs explicit region timing")
    q.add_argument("--N", type=_at_least_one, nargs="+", default=[125, 175])
    q.add_argument("--reps", type=_at_least_one, default=20)
    q.add_argument("--out", default="out")
    q.set_defaults(func=cmd_bench)

    q = sub.add_parser("region-export", help="dump gain regions as CSV")
    q.add_argument("--k-e", type=float, default=200.0)
    q.add_argument("--b-e", type=float, default=0.5)
    q.add_argument("--m-t", type=float, default=4.0)
    q.add_argument("--k-p", type=float, default=23.5)
    q.add_argument("--k-d", type=float, default=19.5)
    q.add_argument("--N", type=_at_least_one, default=125)
    q.add_argument("--k-f-min", type=float, default=0.1)
    q.add_argument("--k-f-max", type=float, default=1.0)
    q.add_argument("--b-f-min", type=float, default=10.0)
    q.add_argument("--b-f-max", type=float, default=40.0)
    q.add_argument("--out", default="out")
    q.set_defaults(func=cmd_region_export)

    q = sub.add_parser("sweep", help="run several scenarios in parallel")
    q.add_argument("scenarios", nargs="+")
    q.add_argument("--out", default="out")
    q.add_argument("--jobs", type=_at_least_one, default=None,
                   help="worker processes (default: CPU count), at most one "
                        "per scenario")
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--duration", type=float, default=None)
    q.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
