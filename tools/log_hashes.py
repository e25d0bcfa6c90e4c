"""Print the behaviour fingerprint of the closed loop: one log hash per scenario.

Each hash is the sha256 of `log.data.tobytes()` followed by `repr(log.events)`.
The scenarios are the four presets at seed 901 and the two soft-noisy
scenarios of benchmark seeds 901 and 902. A change meant to keep behaviour
prints the same lines before and after.

    PYTHONPATH=src python tools/log_hashes.py
"""

import hashlib
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


def main() -> None:
    runs = [(f"{name}/901", harness.preset(name, seed=901)) for name in PRESETS]
    for s in (901, 902):
        runs += [(f"soft-noisy {s} {sc.name}", sc)
                 for sc in scenarios("soft-noisy", s)]
    for label, sc in runs:
        print(f"{label} {log_hash(sc)}", flush=True)


if __name__ == "__main__":
    main()
