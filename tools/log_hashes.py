"""Print the behaviour fingerprint of the closed loop and of schedule().

Each log hash is the sha256 of `log.data.tobytes()` followed by
`repr(log.events)`. The scenarios are the four presets at seed 901 and the
two soft-noisy scenarios of benchmark seeds 901 and 902. The ninth line,
`schedule-draws/7`, is the sha256 of `repr(schedule(...))` over 1000 draws
from `default_rng(7)`: k_p~U(5,60), k_d~U(5,40), k_e~U(5,500),
b_e~U(0.1,1.5), m~U(2,6) in that order, with the gain box cycling through
the four of DRAW_BOXES. A change meant to keep behaviour prints the same
lines before and after.

    PYTHONPATH=src python tools/log_hashes.py [--check BENCH_<tag>.json]

With --check, the hashes are also compared with the `log_hashes` of a record
written by tools/bench_record.py; the script exits nonzero and names each
scenario whose hash differs from the record's or is missing from it.
"""

import argparse
import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))

import numpy as np  # noqa: E402

from uamsim import harness  # noqa: E402
from uamsim.scheduler import GainBox, schedule  # noqa: E402
from workloads import PRESETS, scenarios  # noqa: E402

DRAW_BOXES = (GainBox(), GainBox(0.1, 1.0, 10.0, 200.0),
              GainBox(0.5, 0.5, 20.0, 20.0), GainBox(0.2, 0.2, 10.0, 40.0))
DRAW_RANGES = ((5, 60), (5, 40), (5, 500), (0.1, 1.5), (2, 6))


def log_hash(scenario: harness.Scenario) -> str:
    log = harness.run(scenario)
    h = hashlib.sha256(log.data.tobytes())
    h.update(repr(log.events).encode())
    return h.hexdigest()


def schedule_results(seed: int):
    """(box, schedule() result) of each of the 1000 draws from
    default_rng(seed)."""
    rng = np.random.default_rng(seed)
    for i in range(1000):
        k_p, k_d, k_e, b_e, m = (rng.uniform(lo, hi) for lo, hi in DRAW_RANGES)
        box = DRAW_BOXES[i % len(DRAW_BOXES)]
        yield box, schedule(k_p, k_d, k_e, b_e, m, box)


def schedule_draws(seed: int):
    """repr of schedule() on each of the 1000 draws from default_rng(seed)."""
    return (repr(r) for _, r in schedule_results(seed))


def schedule_hash(seed: int) -> str:
    h = hashlib.sha256()
    for r in schedule_draws(seed):
        h.update(r.encode())
    return h.hexdigest()


def log_runs() -> list:
    """(label, scenario) of the eight closed-loop fingerprint runs."""
    runs = [(f"{name}/901", harness.preset(name, seed=901)) for name in PRESETS]
    for s in (901, 902):
        runs += [(f"soft-noisy {s} {sc.name}", sc)
                 for sc in scenarios("soft-noisy", s)]
    return runs


def fingerprint(runs):
    """(label, hash) of each run's log, then of the schedule() draws."""
    for label, sc in runs:
        yield label, log_hash(sc)
    yield "schedule-draws/7", schedule_hash(7)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--check", metavar="RECORD",
                   help="BENCH_*.json whose log_hashes the runs must match")
    args = p.parse_args(argv)
    expected = None
    if args.check:
        with open(args.check) as fh:
            expected = json.load(fh)["log_hashes"]

    runs = log_runs()
    differ = []
    for label, h in fingerprint(runs):
        print(f"{label} {h}", flush=True)
        if expected is not None and expected.get(label) != h:
            differ.append(label)
    n = len(runs) + 1
    if differ:
        print(f"{len(differ)} of {n} hashes differ from {args.check}: "
              + "; ".join(differ), file=sys.stderr)
        return 1
    if expected is not None:
        print(f"all {n} hashes match {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
