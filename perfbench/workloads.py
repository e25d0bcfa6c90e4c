"""Inputs of the benchmark workloads, made from the workload seed alone.

presets          the four paper presets, noise-free, default 20 s each.
soft-noisy       experiment1-slow and experiment2-tilted on a soft surface with
                 force-sensor noise, so the detector chatters and the
                 scheduler mostly takes the explicit-region path.
schedule-stream  direct scheduler.schedule() calls on independent draws of the
                 surface estimate and nominal mass.
"""

from __future__ import annotations

import numpy as np

from uamsim import harness
from uamsim.scheduler import GainBox

PRESETS = ("experiment1-slow", "experiment1-fast", "experiment2-vertical",
           "experiment2-tilted")
SOFT_PRESETS = ("experiment1-slow", "experiment2-tilted")
SOFT_OVERRIDES = dict(k_e=50.0, b_e=0.2, k_d=25.0, K_md=25.0, noise_f_f=0.1)

# schedule-stream: fixed bench gains and box, estimates drawn per call
STREAM_K_P = 23.5
STREAM_K_D = 19.5
STREAM_BOX = GainBox()
STREAM_BATCH = 100            # calls per round
K_E_RANGE = (50.0, 500.0)
B_E_RANGE = (0.1, 1.0)
M_BAR_RANGE = (3.0, 5.0)


def scenarios(workload: str, seed: int) -> list[harness.Scenario]:
    """The closed-loop scenarios of one round of a loop workload."""
    if workload == "presets":
        # noise-free: the seed reaches the plant's generator but draws nothing
        return [harness.preset(name, seed=seed) for name in PRESETS]
    if workload == "soft-noisy":
        seeds = np.random.SeedSequence(seed).generate_state(len(SOFT_PRESETS))
        return [harness.preset(name, seed=int(s), **SOFT_OVERRIDES)
                for name, s in zip(SOFT_PRESETS, seeds)]
    raise ValueError(f"{workload!r} is not a closed-loop workload")


class ScheduleDraws:
    """Endless seeded stream of (k_e, b_e, m_bar) rows, one per schedule() call."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)

    def batch(self, n: int = STREAM_BATCH) -> np.ndarray:
        rng = self._rng
        return np.column_stack([rng.uniform(*K_E_RANGE, n),
                                rng.uniform(*B_E_RANGE, n),
                                rng.uniform(*M_BAR_RANGE, n)])


def build(workload: str, seed: int):
    """Everything a run needs before its first timed call."""
    if workload == "schedule-stream":
        draws = ScheduleDraws(seed)
        return draws, draws.batch()
    return scenarios(workload, seed)
