"""Per-layer timing of uamsim, by wrapping its public functions from outside.

Every wrapped call is a span. Spans nest through a stack, so a layer's busy
time counts only its outermost spans and a span's self time excludes the
spans it encloses. Spans are aggregated in memory (durations per function,
counters) and written out once, when the run ends.

schedule() binds pattern_search_J as a default argument at import, so the
search itself cannot be wrapped: its time is schedule() on that path minus
the region_explicit calls inside it. j_cost is looked up at call time and
is wrapped directly.
"""

from __future__ import annotations

import statistics
from array import array
from collections import defaultdict
from time import perf_counter

from uamsim import controller, estimator, harness, plant, reference, scheduler

# span name -> (owner, attribute). The layer is the first name component.
TARGETS = {
    "plant.step": (plant, "step"),
    "plant.measure": (plant, "measure"),
    "estimator.rlse_update": (estimator, "rlse_update"),
    "estimator.detector": (estimator.ContactDetector, "update"),
    "reference.free_step": (reference, "free_step"),
    "reference.contact_step": (reference, "contact_step"),
    "reference.switch_mode": (reference, "switch_mode"),
    "controller.dob_estimates": (controller, "dob_estimates"),
    "controller.dob_update": (controller, "dob_update"),
    "controller.control_force": (controller, "control_force"),
    "controller.control_motion": (controller, "control_motion"),
    "controller.compose_u": (controller, "compose_u"),
    "controller.extract_inputs": (controller, "extract_inputs"),
    "controller.invert_inputs": (controller, "invert_inputs"),
    "scheduler.schedule": (scheduler, "schedule"),
    "scheduler.region_explicit": (scheduler, "region_explicit"),
    "scheduler.j_cost": (scheduler, "j_cost"),
    "scheduler.slew_track": (scheduler.SlewLimitedGains, "track"),
    "harness.run": (harness, "run"),
}

LAYERS = ("plant", "estimator", "reference", "controller", "scheduler")
PATHS = {"NS-centroid": "ns_centroid", "PatternSearch": "pattern_search",
         "Fallback": "fallback"}


class Tracer:
    """Installs timing wrappers on TARGETS; uninstall() restores the originals."""

    def __init__(self):
        self.durations = defaultdict(lambda: array("d"))
        self.self_s = defaultdict(float)
        self.busy_s = defaultdict(float)
        # schedule() time per provenance path; PatternSearch excludes regions
        self.path_s = {p: array("d") for p in PATHS.values()}
        self.detector_makes = 0
        self._stack = []          # open spans: [layer, child_s, region_s]
        self._saved = []

    def install(self) -> None:
        for name, (owner, attr) in TARGETS.items():
            orig = owner.__dict__[attr]
            fn = orig
            if name == "estimator.detector":
                fn = self._counting_makes(orig)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _counting_makes(self, update):
        def counted(det, f_f):
            was = det.in_contact
            now = update(det, f_f)
            if now and not was:
                self.detector_makes += 1
            return now
        return counted

    def _wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        durations = self.durations[name]
        stack = self._stack
        is_region = name == "scheduler.region_explicit"
        is_schedule = name == "scheduler.schedule"

        def span(*args, **kwargs):
            frame = [layer, 0.0, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                durations.append(dur)
                self.self_s[name] += dur - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    if is_region:
                        parent[2] += dur
                    if parent[0] != layer:
                        self.busy_s[layer] += dur
                else:
                    self.busy_s[layer] += dur
            if is_schedule:
                path = PATHS[out.provenance]
                own = dur - frame[2] if path == "pattern_search" else dur
                self.path_s[path].append(own)
            return out

        span.__wrapped__ = fn
        return span

    # -- results -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def median_us(self, name: str) -> float:
        d = self.durations.get(name)
        return statistics.median(d) * 1e6 if d else 0.0

    def metrics(self, overhead_s: float) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        us = self.median_us
        m = {
            "plant.step.us": (us("plant.step"), "us"),
            "plant.step.calls": (self.calls("plant.step"), "count"),
            "plant.measure.us": (us("plant.measure"), "us"),
            "estimator.rlse_update.us": (us("estimator.rlse_update"), "us"),
            "estimator.rlse_update.calls": (self.calls("estimator.rlse_update"), "count"),
            "estimator.detector.makes": (self.detector_makes, "count"),
            "reference.contact_step.us": (us("reference.contact_step"), "us"),
            "reference.free_step.us": (us("reference.free_step"), "us"),
            "reference.switch_mode.calls": (self.calls("reference.switch_mode"), "count"),
            "controller.dob_update.us": (us("controller.dob_update"), "us"),
            "controller.dob_estimates.calls": (self.calls("controller.dob_estimates"), "count"),
            "controller.control_force.us": (us("controller.control_force"), "us"),
            "controller.control_motion.us": (us("controller.control_motion"), "us"),
            "controller.compose_u.us": (us("controller.compose_u"), "us"),
            "controller.extract_inputs.us": (us("controller.extract_inputs"), "us"),
            "controller.invert_inputs.calls": (self.calls("controller.invert_inputs"), "count"),
            "scheduler.region_explicit.us": (us("scheduler.region_explicit"), "us"),
            "scheduler.j_cost.us": (us("scheduler.j_cost"), "us"),
        }
        for path, durs in self.path_s.items():
            m[f"scheduler.schedule.{path}.calls"] = (len(durs), "count")
        for path in ("ns_centroid", "pattern_search"):
            durs = self.path_s[path]
            m[f"scheduler.schedule.{path}.us"] = (
                statistics.median(durs) * 1e6 if durs else 0.0, "us")
        searches = len(self.path_s["pattern_search"])
        m["scheduler.j_cost.per_search"] = (
            self.calls("scheduler.j_cost") / searches if searches else 0.0,
            "calls/search")
        for layer in LAYERS:
            m[f"{layer}.busy_s"] = (self.busy_s[layer], "s")
        m["harness.run.self_s"] = (self.self_s["harness.run"], "s")
        m["trace.overhead_s"] = (overhead_s, "s")
        return m

    def summary(self) -> dict:
        """Every wrapped function's calls, median, total and self time."""
        out = {}
        for name, durs in sorted(self.durations.items()):
            if durs:
                out[name] = {"calls": len(durs),
                             "median_us": statistics.median(durs) * 1e6,
                             "total_s": sum(durs),
                             "self_s": self.self_s[name]}
        return out
