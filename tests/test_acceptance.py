"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Every tolerance is pinned here; the closed-loop criteria run the bundled
experiment scenarios end to end.
"""

import math
import time

import numpy as np
import pytest

from uamsim import controller as ctl
from uamsim import harness
from uamsim import scheduler as sched
from uamsim.plant import Measurement, SurfaceModel
from uamsim.scheduler import GainBox

from estimator_reference import lambda_max_2x2
from plant_reference import E3, rotation
from region_raster import _boundary_mask, _rasterize_polygon
from switched_oracle import cycle_contraction, sample_params

BOX = GainBox(0.1, 1.0, 10.0, 40.0)
K_P, K_D = 23.5, 19.5


def _report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_region_oracle_equivalence():
    rng = np.random.default_rng(2024)
    N = 125
    ks = np.linspace(BOX.k_f_min, BOX.k_f_max, N + 1)
    bs = np.linspace(BOX.b_f_min, BOX.b_f_max, N + 1)
    false_certs = 0
    inner_mismatch = 0
    t0 = time.perf_counter()
    for _ in range(200):
        k_e = rng.uniform(50.0, 500.0)
        b_e = rng.uniform(0.1, 1.0)
        m_t = rng.uniform(3.0, 5.0)
        for cond in (sched.NS1, sched.NS2, sched.NS3):
            grid = sched.region_grid(cond, K_P, K_D, k_e, b_e, m_t, BOX, N)
            reg = sched.region_explicit(cond, K_P, K_D, k_e, b_e, m_t, BOX)
            poly = _rasterize_polygon(reg, ks, bs)
            false_certs += int((poly & ~grid).sum())
            bnd = _boundary_mask(grid) | _boundary_mask(poly)
            inner_mismatch += int(((poly != grid) & ~bnd).sum())
    wall = time.perf_counter() - t0
    ok = false_certs == 0 and inner_mismatch == 0 and wall < 120.0
    _report(1, "region oracle equivalence", ok,
            f"false={false_certs} inner_mismatch={inner_mismatch} wall={wall:.1f}s")


def test_criterion_02_lambda_vs_trajectory_oracle():
    rng = np.random.default_rng(7)
    cases = [(c1, c2) for c1 in ("complex", "repeated", "real")
             for c2 in ("complex", "repeated", "real")]
    t0 = time.perf_counter()
    n_total = 0
    max_err = 0.0
    for c1, c2 in cases:
        got = 0
        tries = 0
        while got < 6 and tries < 500:
            tries += 1
            K1, B1, K2, B2 = sample_params(c1, c2, rng)
            measured = cycle_contraction(K1, B1, K2, B2)
            if measured is None:
                continue
            _, _, prod = sched.lambda_pair(sched.SwitchedParams(K1, B1, K2, B2))
            max_err = max(max_err, abs(prod - measured))
            got += 1
        n_total += got
    wall = time.perf_counter() - t0
    ok = n_total >= 50 and max_err < 1e-3 and wall < 60.0
    _report(2, "lambda formula vs trajectory oracle", ok,
            f"sets={n_total} max_err={max_err:.2e} wall={wall:.1f}s")


def test_criterion_03_scheduler_safety():
    rng = np.random.default_rng(99)
    t0 = time.perf_counter()
    bad_box = 0
    bad_cert = 0
    for _ in range(10_000):
        k_e = rng.uniform(50.0, 500.0)
        b_e = rng.uniform(0.1, 1.0)
        m_t = rng.uniform(3.0, 5.0)
        res = sched.schedule(K_P, K_D, k_e, b_e, m_t, BOX)
        if not (BOX.k_f_min <= res.k_f <= BOX.k_f_max
                and BOX.b_f_min <= res.b_f <= BOX.b_f_max):
            bad_box += 1
        if res.provenance == sched.NS_CENTROID:
            sp = sched.switched_params(K_P, K_D, res.k_f, res.b_f, k_e, b_e, m_t)
            if not sched.check_no_switch(res.condition_id, sp):
                bad_cert += 1
    wall = time.perf_counter() - t0
    ok = bad_box == 0 and bad_cert == 0 and wall < 60.0
    _report(3, "scheduler safety", ok,
            f"out_of_box={bad_box} uncertified={bad_cert} wall={wall:.1f}s")


def test_criterion_04_benchmark_ordering():
    res = harness.bench_scheduler([125, 175], reps=20)
    ratios = [tg / te for _, tg, te in res["rows"]]
    expo = res["grid_exponent"]
    ok = all(r >= 10.0 for r in ratios) and 1.7 <= expo <= 2.3
    _report(4, "benchmark ordering", ok,
            f"speedups={[f'{r:.0f}x' for r in ratios]} exponent={expo:.2f}")


def test_criterion_05_experiment1_slow():
    sc = harness.preset("experiment1-slow", duration=20.0)
    t0 = time.perf_counter()
    log = harness.run(sc)
    wall = time.perf_counter() - t0
    m = harness.metrics(log, settle_window=3.0)
    ok = (m["force_rms"] < 0.3 and m["breaks_after_settle"] == 0
          and wall < 10.0 and not math.isnan(m["settle_time"]))
    _report(5, "experiment-1 slow analog", ok,
            f"force_rms={m['force_rms']:.4f}N breaks={m['breaks_after_settle']} "
            f"wall={wall:.1f}s")


def test_criterion_06_experiment1_fast():
    sc = harness.preset("experiment1-fast", duration=20.0)
    log = harness.run(sc)
    m = harness.metrics(log, settle_window=3.0)
    t = log.column("t")
    inc = log.column("in_contact") > 0.5
    breaks = [te for te, kind, _ in log.events if kind == "contact_break"]
    permanent = bool(np.all(inc[t >= t[inc][0] + 3.0]))
    ok = (len(breaks) < 50 and permanent and m["force_rms"] < 0.5
          and abs(m["xcorr_lag"]) < 0.2)
    _report(6, "experiment-1 fast analog", ok,
            f"breaks={len(breaks)} permanent={permanent} "
            f"force_rms={m['force_rms']:.4f}N lag={m['xcorr_lag']:.3f}s")


def _windowed_errors(log, t_start, t_end):
    t = log.column("t")
    w = (t >= t_start) & (t <= t_end)
    e_f = log.column("f_f")[w] - log.column("f_fr")[w]
    e_m = np.stack([log.column("x_m1")[w] - log.column("x_mr1")[w],
                    log.column("x_m2")[w] - log.column("x_mr2")[w]], axis=1)
    return (float(np.sqrt(np.mean(e_f ** 2))),
            float(np.sqrt(np.mean(np.sum(e_m ** 2, axis=1)))))


def test_criterion_07_experiment2_slide():
    results = {}
    for name in ("experiment2-vertical", "experiment2-tilted"):
        log = harness.run(harness.preset(name, duration=20.0))
        t = log.column("t")
        inc = log.column("in_contact") > 0.5
        t_c = t[inc][0]
        # matched 10 s windows starting 3 s into continuous contact
        results[name] = _windowed_errors(log, t_c + 3.0, t_c + 13.0)
    fv, mv = results["experiment2-vertical"]
    ft, mt = results["experiment2-tilted"]
    ok = (mv < 0.02 and fv < 0.5 and mt < 0.02 and ft < 0.5 and ft <= fv)
    _report(7, "experiment-2 slide analogs", ok,
            f"vertical: force={fv:.4f}N motion={mv:.5f}m | "
            f"tilted: force={ft:.4f}N motion={mt:.5f}m")


def test_criterion_08_rlse_convergence(monkeypatch):
    sc = harness.preset("experiment1-fast", duration=17.0,
                        approach_speed=0.005, standoff=0.02,
                        contact_threshold=0.002, force_period=1.0)
    caps = []
    rlse_update = harness.estm.rlse_update

    def recording_update(*args, **kwargs):
        est = rlse_update(*args, **kwargs)
        caps.append(lambda_max_2x2(est.P))
        return est

    monkeypatch.setattr(harness.estm, "rlse_update", recording_update)
    log = harness.run(sc)
    t = log.column("t")
    inc = log.column("in_contact") > 0.5
    t_c = t[inc][0]
    w = t >= t_c + 10.0
    k_err = float(np.abs(log.column("k_e_hat")[w] - 200.0).max() / 200.0)
    b_err = float(np.abs(log.column("b_e_hat")[w] - 0.5).max() / 0.5)
    cap = max(caps)
    ok = k_err < 0.01 and b_err < 0.05 and cap <= 5000.0 + 1e-6
    _report(8, "RLSE convergence", ok,
            f"k_err={k_err * 100:.2f}% b_err={b_err * 100:.2f}% "
            f"max_lambda_P={cap:.0f}")


def test_criterion_09_dob_closed_forms():
    s = SurfaceModel.from_tilt(0.0, p_s=(1.0, 0.0, 1.5))
    g = ctl.GainSet(m_bar=4.2, L_f=10.0)

    # constant disturbance: all observer inputs constant, error is exactly
    # e(0) exp(-L_f t)
    D, v0, dt = 2.0, 0.3, 2e-3
    u_f = g.m_bar * g.g_bar * float(s.B_f @ E3) - D
    meas = Measurement(x_f=0.0, x_dot_f=v0, x_m=np.zeros(2),
                       x_dot_m=np.zeros(2), f_f=0.0)
    dob = ctl.DOBState()
    e0 = g.m_bar * g.L_f * v0 - D
    errs = []
    for _ in range(400):
        d_f, _ = ctl.dob_estimates(dob, meas, g)
        dob = ctl.dob_update(dob, meas, u_f, np.zeros(2), g, s, False, dt)
        errs.append(d_f - D)
    ts = dt * np.arange(400)
    dev_const = float(np.max(np.abs(errs - e0 * np.exp(-g.L_f * ts))))

    # ramp disturbance: steady error magnitude slope / L_f
    c, dt = 1.5, 5e-5
    u_f = g.m_bar * g.g_bar * float(s.B_f @ E3)
    dob = ctl.DOBState()
    err = 0.0
    for k in range(30_000):
        t = k * dt
        m = Measurement(x_f=0.0, x_dot_f=c * t * t / (2.0 * g.m_bar),
                        x_m=np.zeros(2), x_dot_m=np.zeros(2), f_f=0.0)
        d_f, _ = ctl.dob_estimates(dob, m, g)
        dob = ctl.dob_update(dob, m, u_f, np.zeros(2), g, s, False, dt)
        err = d_f - c * t
    ramp_dev = abs(abs(err) - c / g.L_f) / (c / g.L_f)

    ok = dev_const < 1e-6 and ramp_dev < 0.01
    _report(9, "DOB closed forms", ok,
            f"const_dev={dev_const:.2e} ramp_dev={ramp_dev * 100:.2f}%")


def test_criterion_10_extraction_round_trip():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(1000):
        T = rng.uniform(5.0, 120.0)
        roll = rng.uniform(-1.2, 1.2)
        pitch = rng.uniform(-1.2, 1.2)
        yaw = rng.uniform(-math.pi, math.pi)
        u = T * rotation([roll, pitch, yaw]) @ E3
        T2, r2, p2 = ctl.invert_inputs(u, yaw)
        T3, r3, p3 = ctl.extract_inputs(u, [r2, p2, yaw])
        worst = max(worst, float(np.linalg.norm(
            T3 * rotation([r3, p3, yaw]) @ E3 - u)))
    ok = worst < 1e-10
    _report(10, "input extraction round trip", ok, f"max_residual={worst:.2e}")
