"""Print the behaviour fingerprint of the closed loop: one log hash per scenario.

Each hash is the sha256 of `log.data.tobytes()` followed by `repr(log.events)`.
The scenarios are the four presets at seed 901 and the two soft-noisy
scenarios of benchmark seeds 901 and 902. A change meant to keep behaviour
prints the same lines before and after.

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

from uamsim import harness  # noqa: E402
from workloads import PRESETS, scenarios  # noqa: E402


def log_hash(scenario: harness.Scenario) -> str:
    log = harness.run(scenario)
    h = hashlib.sha256(log.data.tobytes())
    h.update(repr(log.events).encode())
    return h.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--check", metavar="RECORD",
                   help="BENCH_*.json whose log_hashes the runs must match")
    args = p.parse_args(argv)
    expected = None
    if args.check:
        with open(args.check) as fh:
            expected = json.load(fh)["log_hashes"]

    runs = [(f"{name}/901", harness.preset(name, seed=901)) for name in PRESETS]
    for s in (901, 902):
        runs += [(f"soft-noisy {s} {sc.name}", sc)
                 for sc in scenarios("soft-noisy", s)]
    differ = []
    for label, sc in runs:
        h = log_hash(sc)
        print(f"{label} {h}", flush=True)
        if expected is not None and expected.get(label) != h:
            differ.append(label)
    if differ:
        print(f"{len(differ)} of {len(runs)} hashes differ from {args.check}: "
              + "; ".join(differ), file=sys.stderr)
        return 1
    if expected is not None:
        print(f"all {len(runs)} hashes match {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
