"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs one closed-loop scenario and a few scheduler calls, confirms that the
checks in checks.py accept those outputs, then feeds them deliberately
wrong copies and confirms that the intended check rejects each one. Exits 0
when every wrong output is rejected and every right one accepted.
"""

import dataclasses
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from uamsim import harness, scheduler  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def log_cases():
    """(label, scenario, log, expected problem substring or None)."""
    sc = harness.preset("experiment1-fast")
    log = harness.run(sc)
    idx = checks.settle_index(log.column("t"), log.column("in_contact") > 0.5)
    per = round(sc.force_period * sc.ctl_rate)

    def edit(**cols):
        data = log.data.copy()
        for name, fn in cols.items():
            j = harness.LOG_COLUMNS.index(name)
            data[:, j] = fn(data[:, j].copy())
        return harness.RunLog(data=data, events=list(log.events))

    def at(i, value):
        def fn(c):
            c[i] = value
            return c
        return fn

    def after_settle(delta):
        def fn(c):
            c[idx:] += delta
            return c
        return fn

    free = int(np.flatnonzero(log.column("in_contact") < 0.5)[-1])
    n = log.n_samples
    # zero-mean over the whole force periods the statics check averages over
    wobble = 0.1 * np.sin(2.0 * np.pi * np.arange(n - idx) / per)
    yield "right log", sc, log, None
    yield "gain outside the box", sc, edit(k_f=at(-1, sc.k_f_max * 1.01)), "gain box"
    yield "force out of contact", sc, edit(f_f=at(free, 0.05)), "out of contact"
    yield "missing row", sc, harness.RunLog(data=log.data[:-1],
                                            events=log.events), "log rows"
    yield "time off the grid", sc, edit(t=at(100, log.column("t")[100] + 1e-6)), "grid"
    yield "non-finite value", sc, edit(p_x=at(50, math.nan)), "non-finite"
    yield "x_f off B_f.p", sc, edit(x_f=at(200, log.column("x_f")[200] + 1e-9)), "B_f.p"
    yield "k_e_hat off by 20%", sc, edit(
        k_e_hat=at(-1, 1.2 * log.column("k_e_hat")[-1])), "k_e_hat"
    yield ("stiffness off by 10% (statics)", dataclasses.replace(sc, k_e=1.1 * sc.k_e),
           log, "statics")
    yield "force oscillating off target", sc, edit(
        f_f=lambda c: np.concatenate([c[:idx], c[idx:] + wobble])), "filtered setpoint"
    yield "motion offset", sc, edit(x_m1=after_settle(0.03)), "motion RMS"
    yield "no detector make", sc, harness.RunLog(
        data=log.data, events=[e for e in log.events if e[1] != "detector_make"]), \
        "detector_make"


def schedule_cases():
    """(label, check thunk, expected problem substring or None)."""
    k_p, k_d, box = workloads.STREAM_K_P, workloads.STREAM_K_D, workloads.STREAM_BOX
    j_cost = scheduler.j_cost
    found = {}
    for k_e, b_e, m in workloads.ScheduleDraws(0).batch(200).tolist():
        res = scheduler.schedule(k_p, k_d, k_e, b_e, m, box)
        found.setdefault(res.provenance, ((k_e, b_e, m), res))
        if len(found) == 2:
            break
    (ns_env, ns), (ps_env, ps) = found["NS-centroid"], found["PatternSearch"]

    def check(env, res):
        return lambda: checks.check_schedule(k_p, k_d, *env, box, res, j_cost)

    r = dataclasses.replace
    # a pair the raw inequality rejects: dB flips sign at either box edge
    b_bad = box.b_f_max if ns.condition_id == "NS3" else box.b_f_min
    if scheduler.check_no_switch(
            ns.condition_id, scheduler.switched_params(k_p, k_d, ns.k_f, b_bad, *ns_env)):
        raise RuntimeError("the NS case needs a pair outside its region")
    # a consistent (k_f, b_f, J) that is worse than the midpoint seed
    k_far, b_far = box.k_f_min + 0.01 * box.widths[0], box.b_f_max - 0.01 * box.widths[1]
    j_far = j_cost(k_far, b_far, k_p, k_d, *ps_env, box)
    if j_far <= j_cost(*box.mid, k_p, k_d, *ps_env, box):
        raise RuntimeError("the seed case needs a pair worse than the midpoint")

    yield "right NS-centroid result", check(ns_env, ns), None
    yield "right PatternSearch result", check(ps_env, ps), None
    yield "gain outside the box", check(ps_env, r(ps, k_f=box.k_f_max + 0.01)), "outside"
    yield "fallback", check(ps_env, r(ps, provenance="Fallback")), "provenance"
    yield "NS pair off its region", check(ns_env, r(ns, b_f=b_bad)), "violates"
    yield "J not finite", check(ps_env, r(ps, J=math.inf)), "J=inf"
    yield "J not the cost at the result", check(ps_env, r(ps, J=ps.J + 0.01)), "j_cost at"
    yield "J above a seed", check(ps_env, r(ps, k_f=k_far, b_f=b_far, J=j_far)), "above the seed"

    K = checks.mode_params(k_p, k_d, ps.k_f, ps.b_f, *ps_env)
    prod = scheduler.lambda_pair(scheduler.SwitchedParams(*K))[2]
    yield "right Lambda product", lambda: checks.check_lambda(*K, prod)[0], None
    yield "Lambda product off by 1%", lambda: checks.check_lambda(*K, 1.01 * prod)[0], \
        "integrated cycle"


def main() -> int:
    cases = [(label, (lambda sc=sc, log=log: checks.check_log(sc, log)[0]), want)
             for label, sc, log, want in log_cases()]
    cases += list(schedule_cases())
    failures = 0
    for label, thunk, want in cases:
        problems = thunk()
        if want is None:
            ok = not problems
        else:
            ok = any(want in p for p in problems)
        failures += not ok
        verdict = "ok  " if ok else "FAIL"
        seen = "; ".join(problems) if problems else "accepted"
        print(f"{verdict} {label}: {seen}")
    print(f"{len(cases) - failures}/{len(cases)} cases behave as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
