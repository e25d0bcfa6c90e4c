"""Timed rounds of each workload, their checks and their metrics.

Imported by run.py once uamsim's sources are on the path. A closed-loop round
runs every scenario of the workload once through harness.run; a
schedule-stream round is one batch of scheduler.schedule() calls.
"""

import hashlib
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from uamsim import harness, scheduler

import checks
import tracing
import workloads

TRACE_STREAM_ROUNDS = 20        # 2000 schedule() calls per traced pass
LAMBDA_SAMPLES = 40
MIN_SETUP_PROBES = 5
STREAM_ROUNDS_PER_PROBE = 10


class SetupProbes:
    """Set-up time in fresh processes (setup_probe.py), sampled across a run.

    Probes run between timed sections, spread over the whole run, so their
    median does not hang on one moment of a machine whose speed drifts.
    """

    def __init__(self, workload: str, seed: int):
        self.cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
                    workload, str(seed)]
        self.seconds = []

    def sample(self) -> None:
        out = subprocess.run(self.cmd, capture_output=True, text=True,
                             timeout=120, check=True)
        self.seconds.append(float(out.stdout.split()[-1]))

    def median(self) -> float:
        while len(self.seconds) < MIN_SETUP_PROBES:
            self.sample()
        return statistics.median(self.seconds)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_metrics(lat) -> tuple[dict, dict]:
    """schedule() throughput as a metric, latency quantiles for the record.

    The quantiles are not metrics. On a machine whose speed switches between
    two levels for seconds at a time, the median of near-identical calls
    lands on one level or the other, and a p99 over the ~1300 in-loop calls
    of a presets run rests on 13 samples; both spread beyond the 0.25 bound
    of the timing metrics. The mean behind schedules_per_s moves smoothly.
    """
    ms = sorted(x * 1e3 for x in lat)
    q = statistics.quantiles(ms, n=100, method="inclusive")
    metrics = {"schedules_per_s": (len(ms) / (sum(ms) / 1e3), "1/s")}
    return metrics, {"schedule_calls": len(ms), "schedule_p50_ms": q[49],
                     "schedule_p99_ms": q[98]}


@contextmanager
def schedule_timer(lat):
    """While active, every scheduler.schedule() call appends its seconds to lat."""
    schedule = scheduler.schedule

    def timed(*args, **kwargs):
        t0 = perf_counter()
        out = schedule(*args, **kwargs)
        lat.append(perf_counter() - t0)
        return out

    scheduler.schedule = timed
    try:
        yield
    finally:
        scheduler.schedule = schedule


# ---------------------------------------------------------------------------
# closed-loop workloads
# ---------------------------------------------------------------------------

def log_digest(log) -> str:
    h = hashlib.sha256(log.data.tobytes())
    h.update(repr(log.events).encode())
    return h.hexdigest()


def loop_round(scs, walls, first, problems, probes=None) -> int:
    """Run each scenario once, appending its wall seconds; returns the failures.

    A scenario's first log is checked at once; later logs must have the same
    digest. Only one log is alive at a time, so memory does not grow with
    the number of rounds.
    """
    failed = 0
    for i, sc in enumerate(scs):
        if probes is not None:
            probes.sample()
        t0 = perf_counter()
        try:
            log = harness.run(sc)
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        walls[i].append(perf_counter() - t0)
        digest = log_digest(log)
        if i not in first:
            bad, fig = checks.check_log(sc, log)
            problems += bad
            first[i] = (digest, fig)
        elif digest != first[i][0]:
            problems.append(f"{sc.name}/seed={sc.seed}: replay differs from the first run")
    return failed


def run_loop(args):
    scs = workloads.scenarios(args.workload, args.seed)
    walls = [[] for _ in scs]
    first = {}
    problems = []
    rounds = failed = 0
    out = {}
    tr = None
    if args.trace:
        failed += loop_round(scs, walls, first, problems)
        tr = tracing.Tracer()
        tr.install()
        try:
            failed += loop_round(scs, walls, first, problems)
        finally:
            tr.uninstall()
        rounds = 2
        overhead = sum(w[1] - w[0] for w in walls if len(w) == 2)
        metrics = tr.metrics(overhead)
    else:
        lat = array("d")
        probes = SetupProbes(args.workload, args.seed)
        with schedule_timer(lat):
            t_start = perf_counter()
            while True:
                failed += loop_round(scs, walls, first, problems, probes)
                rounds += 1
                if perf_counter() - t_start >= args.seconds:
                    break
        sim_s = sum(sc.duration * len(w) for sc, w in zip(scs, walls))
        metrics = {"setup_s": (probes.median(), "s"),
                   "peak_rss_mb": (peak_rss_mb(), "MB"),
                   "rtf": (sim_s / sum(map(sum, walls)), "sim_s/wall_s")}
        more, figs = latency_metrics(lat)
        metrics.update(more)
        out.update(figs)
    out.update(rounds=rounds, walls_s=walls)
    attempted = rounds * len(scs)

    figures = {f"{scs[i].name}/seed={scs[i].seed}": fig
               for i, (_, fig) in sorted(first.items())}
    tracked = [f for f in figures.values() if "force_rms_N" in f]
    if tracked:
        out["force_rms_N"] = statistics.fmean(f["force_rms_N"] for f in tracked)
        out["motion_rms_m"] = statistics.fmean(f["motion_rms_m"] for f in tracked)
    out["figures"] = figures
    return metrics, attempted, failed, problems, out, tr


# ---------------------------------------------------------------------------
# schedule-stream
# ---------------------------------------------------------------------------

def stream_round(rows, lat, excluded):
    """schedule() on each (k_e, b_e, m) row; returns (wall s, failed, results)."""
    schedule = scheduler.schedule        # looked up per round: may be traced
    k_p, k_d, box = workloads.STREAM_K_P, workloads.STREAM_K_D, workloads.STREAM_BOX
    results = []
    failed = 0
    t0 = perf_counter()
    for k_e, b_e, m in rows:
        t1 = perf_counter()
        try:
            res = schedule(k_p, k_d, k_e, b_e, m, box)
        except OverflowError:
            # Known fault, see CHANGES.md: the real-root branch of
            # scheduler._lambda_mode overflows when the search visits a gain
            # pair whose contact mode is within about 1e-5 of critical
            # damping. Which draws hit it depends on the seed, so they are
            # left out of the workload (not attempted) and listed instead.
            excluded.append((k_e, b_e, m))
            continue
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        lat.append(perf_counter() - t1)
        results.append((k_e, b_e, m, res))
    return perf_counter() - t0, failed, results


class StreamChecker:
    """Checks every result as its round ends; keeps only a Lambda sample."""

    def __init__(self):
        self.problems = []
        self.paths = {"NS-centroid": 0, "PatternSearch": 0, "Fallback": 0}
        self.sample = []             # first PatternSearch result of each round

    def add(self, results):
        k_p, k_d, box = workloads.STREAM_K_P, workloads.STREAM_K_D, workloads.STREAM_BOX
        for k_e, b_e, m, res in results:
            self.paths[res.provenance] = self.paths.get(res.provenance, 0) + 1
            self.problems += checks.check_schedule(k_p, k_d, k_e, b_e, m, box, res,
                                                   scheduler.j_cost)
        searched = [r for r in results if r[3].provenance == "PatternSearch"]
        if searched and len(self.sample) < LAMBDA_SAMPLES:
            self.sample.append(searched[0])

    def finish(self):
        """Integrates the sampled switching cycles; returns (problems, figures)."""
        k_p, k_d = workloads.STREAM_K_P, workloads.STREAM_K_D
        diffs = []
        for k_e, b_e, m, res in self.sample:
            K1, B1, K2, B2 = checks.mode_params(k_p, k_d, res.k_f, res.b_f, k_e, b_e, m)
            prod = scheduler.lambda_pair(scheduler.SwitchedParams(K1, B1, K2, B2))[2]
            bad, diff = checks.check_lambda(K1, B1, K2, B2, prod)
            self.problems += bad
            if diff is not None:
                diffs.append(diff)
        if len(diffs) < len(self.sample) / 2:
            self.problems.append(f"only {len(diffs)} of {len(self.sample)} sampled "
                                 "results had a switching cycle")
        fig = {"lambda_checked": len(diffs),
               "lambda_max_diff": max(diffs, default=0.0),
               "paths": self.paths}
        return self.problems, fig


def run_stream(args):
    draws, first = workloads.build(args.workload, args.seed)
    rounds = [first.tolist()]
    excluded = []
    lat = array("d")
    checker = StreamChecker()
    problems = []
    failed = 0
    out = {}
    tr = None
    if args.trace:
        while len(rounds) < TRACE_STREAM_ROUNDS:
            rounds.append(draws.batch().tolist())
        untraced, traced = [], []
        wall_u = wall_t = 0.0
        for rows in rounds:
            w, f, res = stream_round(rows, lat, excluded)
            wall_u += w
            failed += f
            checker.add(res)
            untraced += res
        tr = tracing.Tracer()
        tr.install()
        try:
            for rows in rounds:
                w, f, res = stream_round(rows, lat, [])
                wall_t += w
                failed += f
                traced += res
        finally:
            tr.uninstall()
        if [r[3] for r in traced] != [r[3] for r in untraced]:
            problems.append("traced schedule() results differ from untraced ones")
        passes = 2
        metrics = tr.metrics(wall_t - wall_u)
    else:
        probes = SetupProbes(args.workload, args.seed)
        wall = 0.0
        t_start = perf_counter()
        while True:
            if len(rounds) % STREAM_ROUNDS_PER_PROBE == 1:
                probes.sample()
            w, f, res = stream_round(rounds[-1], lat, excluded)
            wall += w
            failed += f
            checker.add(res)
            if perf_counter() - t_start >= args.seconds:
                break
            rounds.append(draws.batch().tolist())
        passes = 1
        period = harness.Scenario().sched_period
        metrics = {"setup_s": (probes.median(), "s"),
                   "peak_rss_mb": (peak_rss_mb(), "MB"),
                   "rtf": (len(lat) * period / wall, "sim_s/wall_s")}
        more, figs = latency_metrics(lat)
        metrics.update(more)
        out.update(figs)
    attempted = passes * (sum(len(rows) for rows in rounds) - len(excluded))
    for row in excluded:
        print(f"EXCLUDED (OverflowError in schedule): k_e, b_e, m_bar = {row}",
              file=sys.stderr)
    bad, fig = checker.finish()
    fig["excluded_draws"] = excluded
    out["figures"] = fig
    return metrics, attempted, failed, problems + bad, out, tr
