import math

import numpy as np
import pytest

from uamsim import scheduler as sched
from uamsim.scheduler import (NS1, NS2, NS3, DegenerateDirection, GainBox,
                              check_no_switch, j_cost, lambda_pair,
                              pattern_search_J, region_explicit, region_grid,
                              schedule, switched_params)

from switched_oracle import cycle_contraction, sample_params

TABLE1 = dict(k_p=23.5, k_d=19.5)
BOX = GainBox(0.1, 1.0, 10.0, 40.0)


# ---------------------------------------------------------------------------
# switched_params
# ---------------------------------------------------------------------------

def test_switched_params_table1_values():
    sp = switched_params(23.5, 19.5, 0.5, 20.0, 200.0, 0.5, 4.0)
    assert sp.K1 == pytest.approx(5.875)
    assert sp.B1 == pytest.approx(4.875)
    assert sp.K2 == pytest.approx(75.0)
    assert sp.B2 == pytest.approx(5.1875)


def test_switched_params_unity_feedback_limit():
    sp = switched_params(23.5, 19.5, 1e-12, 1e-12, 200.0, 0.5, 4.0)
    assert sp.K2 == pytest.approx(200.0 / 4.0, rel=1e-9)
    assert sp.B2 == pytest.approx(0.5 / 4.0, rel=1e-6)


def test_switched_params_mass_homogeneity():
    a = switched_params(23.5, 19.5, 0.3, 15.0, 120.0, 0.7, 2.0)
    b = switched_params(23.5, 19.5, 0.3, 15.0, 120.0, 0.7, 6.0)
    for name in ("K1", "B1", "K2", "B2"):
        assert getattr(a, name) == pytest.approx(3.0 * getattr(b, name))


def test_switched_params_rejects_nonpositive():
    with pytest.raises(ValueError):
        switched_params(23.5, 19.5, -2.0, 0.0, 200.0, 0.5, 4.0)


# ---------------------------------------------------------------------------
# raw no-switching checks
# ---------------------------------------------------------------------------

def test_ns1_hand_evaluation_matches_reduced_inequality():
    # Table-1 style numbers: dB < 0 and the free mode is overdamped, so NS1
    # reduces to its third inequality.
    sp = switched_params(23.5, 19.5, 0.5, 20.0, 200.0, 0.5, 4.0)
    dK = sp.K1 - sp.K2
    dB = sp.B1 - sp.B2
    assert dB == pytest.approx(-0.3125)
    assert 4.0 * sp.K1 <= sp.B1 ** 2
    C = 2.0 * sp.K1 / (sp.B1 - math.sqrt(sp.B1 ** 2 - 4.0 * sp.K1))
    assert check_no_switch(NS1, sp) == (dK / dB < C)
    assert not check_no_switch(NS1, sp)          # 221.2 is not < 2.695


def test_stiff_wall_underdamped_contact_fails_ns2_ns3():
    # huge K2 with small damping: 4 K2 > B2^2
    sp = sched.SwitchedParams(K1=5.875, B1=4.875, K2=500.0, B2=3.0)
    assert not check_no_switch(NS2, sp)
    assert not check_no_switch(NS3, sp)


def test_ns3_boundary_db_zero():
    sp = sched.SwitchedParams(K1=4.0, B1=10.0, K2=9.0, B2=10.0)  # dB = 0
    assert 4.0 * sp.K2 <= sp.B2 ** 2
    assert check_no_switch(NS3, sp)


# ---------------------------------------------------------------------------
# explicit regions
# ---------------------------------------------------------------------------

def test_ns3_band_empty_for_stiff_wall():
    # at k_f = 0.1 the overdamping bound sits far above the dB >= 0 line:
    # lower = -0.55 + 2*sqrt(4*200*1.1) = 58.78 > upper = 18.95
    lower = -0.5 * 1.1 + 2.0 * math.sqrt(4.0 * 200.0 * 1.1)
    upper = -0.5 * 1.1 + 19.5
    assert lower == pytest.approx(58.78, abs=0.01)
    assert upper == pytest.approx(18.95, abs=0.01)
    assert lower > upper
    reg = region_explicit(NS3, 23.5, 19.5, 200.0, 0.5, 4.0, BOX)
    assert reg.empty


def _rasterize(region, box, N):
    ks = np.linspace(box.k_f_min, box.k_f_max, N + 1)
    bs = np.linspace(box.b_f_min, box.b_f_max, N + 1)
    out = np.zeros((N + 1, N + 1), dtype=bool)
    if region.empty:
        return out
    for i, k in enumerate(ks):
        for j, b in enumerate(bs):
            out[i, j] = region.contains(float(k), float(b))
    return out


def _boundary_mask(bm):
    pad = np.pad(bm, 1, mode="edge")
    m = np.zeros_like(bm)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            m |= pad[1 + di:pad.shape[0] - 1 + di,
                     1 + dj:pad.shape[1] - 1 + dj] != bm
    return m


def test_ns1_softest_environment_matches_grid_oracle():
    # softest admissible environment; the overdamping gate holds at m_t = 4
    assert 4.0 * 4.0 * 23.5 <= 19.5 ** 2
    N = 60
    grid = region_grid(NS1, 23.5, 19.5, 50.0, 1.0, 4.0, BOX, N)
    reg = region_explicit(NS1, 23.5, 19.5, 50.0, 1.0, 4.0, BOX)
    poly = _rasterize(reg, BOX, N)
    assert not (poly & ~grid).any()                     # inner
    bnd = _boundary_mask(grid) | _boundary_mask(poly)
    assert ((poly == grid) | bnd).all()                 # interior agreement


def test_region_degenerate_box_point():
    pt_in = GainBox(0.5, 0.5, 20.0, 20.0)
    # NS2 holds at (0.5, 20) for a soft environment?
    sp = switched_params(23.5, 19.5, 0.5, 20.0, 50.0, 1.0, 4.0)
    expected = check_no_switch(NS2, sp)
    reg = region_explicit(NS2, 23.5, 19.5, 50.0, 1.0, 4.0, pt_in)
    assert reg.empty != expected
    if expected:
        assert reg.vertices == [(0.5, 20.0)]
    # a point that certainly fails (stiff wall, NS3)
    reg3 = region_explicit(NS3, 23.5, 19.5, 200.0, 0.5, 4.0, pt_in)
    assert reg3.empty


def test_region_grid_shape_and_counts():
    bm = region_grid(NS2, 23.5, 19.5, 50.0, 1.0, 4.0, BOX, 20)
    assert bm.shape == (21, 21)
    assert bm.size == 441
    # stiff wall: every condition false on the whole grid
    for cond in (NS1, NS2, NS3):
        assert not region_grid(cond, 23.5, 19.5, 500.0, 0.1, 4.2, BOX, 10).any()


def test_region_explicit_inner_and_interior_agreement_sampled():
    rng = np.random.default_rng(11)
    N = 40
    for _ in range(10):
        k_e = rng.uniform(50.0, 500.0)
        b_e = rng.uniform(0.1, 1.0)
        m_t = rng.uniform(3.0, 5.0)
        for cond in (NS1, NS2, NS3):
            grid = region_grid(cond, 23.5, 19.5, k_e, b_e, m_t, BOX, N)
            reg = region_explicit(cond, 23.5, 19.5, k_e, b_e, m_t, BOX)
            poly = _rasterize(reg, BOX, N)
            assert not (poly & ~grid).any()
            bnd = _boundary_mask(grid) | _boundary_mask(poly)
            assert ((poly == grid) | bnd).all()


# ---------------------------------------------------------------------------
# finite-switching contraction
# ---------------------------------------------------------------------------

def test_lambda_matches_trajectory_oracle_spot_checks():
    rng = np.random.default_rng(5)
    combos = [("complex", "complex"), ("complex", "real"),
              ("real", "complex"), ("repeated", "complex"),
              ("complex", "repeated")]
    for c1, c2 in combos:
        done = False
        for _ in range(40):
            K1, B1, K2, B2 = sample_params(c1, c2, rng)
            measured = cycle_contraction(K1, B1, K2, B2)
            if measured is None:
                continue
            _, _, prod = lambda_pair(sched.SwitchedParams(K1, B1, K2, B2))
            assert prod == pytest.approx(measured, abs=1e-3), (c1, c2)
            done = True
            break
        assert done, f"no valid sample for {(c1, c2)}"


def test_lambda_exponent_sign_diagnostic():
    # The oscillatory-mode exponent admits two sign readings; only the
    # decaying one reproduces the trajectory oracle.
    K1, B1, K2, B2 = 19.83, 0.69, 14.21, 0.26
    measured = cycle_contraction(K1, B1, K2, B2)
    assert measured is not None
    sp = sched.SwitchedParams(K1, B1, K2, B2)
    _, _, prod = lambda_pair(sp)
    assert prod == pytest.approx(measured, abs=1e-3)

    def lam_flipped(K, B, dK, dB, i):
        L = math.hypot(dK, dB)
        w = 0.5 * math.sqrt(4 * K - B * B)
        Q = B * dK - 2 * K * dB
        s = -1.0 if i == 1 else 1.0
        phi = (-math.atan2(s * 2 * w * dK, Q)) % math.pi
        br = (K / w) / math.sqrt(dK ** 2 / L ** 2 + Q ** 2 / (4 * w * w * L * L))
        return (br ** s) * math.exp(+(B / (2.0 * w)) * phi)

    dK, dB = K1 - K2, B1 - B2
    flipped = lam_flipped(K1, B1, dK, dB, 1) * lam_flipped(K2, B2, dK, dB, 2)
    assert abs(flipped - measured) > 1e-2


def test_lambda_identical_modes_perturbed_in_damping_only():
    # K2 = K1 with an infinitesimal damping difference: the mode-difference
    # line coincides with the turning line, so the cycle degenerates and the
    # contraction tends to one.
    for eps in (1e-3, 1e-6, 1e-9):
        sp = sched.SwitchedParams(K1=10.0, B1=2.0, K2=10.0, B2=2.0 + eps)
        l1, l2, prod = lambda_pair(sp)
        assert prod == pytest.approx(1.0, abs=1e-9)


def test_lambda_degenerate_direction_raises():
    with pytest.raises(DegenerateDirection):
        lambda_pair(sched.SwitchedParams(K1=10.0, B1=2.0, K2=10.0, B2=2.0))


def test_lambda_heavily_damped_contact_contracts():
    # stable underdamped free mode, strongly overdamped contact mode
    sp = sched.SwitchedParams(K1=5.875, B1=2.0, K2=20.0, B2=25.0)
    _, _, prod = lambda_pair(sp)
    measured = cycle_contraction(sp.K1, sp.B1, sp.K2, sp.B2)
    assert prod == pytest.approx(measured, abs=1e-3)
    assert prod < 1.0


# ---------------------------------------------------------------------------
# pattern search
# ---------------------------------------------------------------------------

def test_pattern_search_recovers_quadratic_minimum():
    box = GainBox(0.1, 1.0, 10.0, 40.0)
    kstar, bstar = 0.37, 31.2

    def cost(k, b):
        return (k - kstar) ** 2 + 0.01 * (b - bstar) ** 2

    k, b, J = pattern_search_J(23.5, 19.5, 200.0, 0.5, 4.0, box, cost=cost)
    assert k == pytest.approx(kstar, abs=1e-3)
    assert b == pytest.approx(bstar, abs=1e-3)
    assert J == pytest.approx(0.0, abs=1e-5)


def test_pattern_search_flat_term_returns_midpoint():
    box = GainBox(0.1, 1.0, 10.0, 40.0)

    def cost(k, b):
        # only the centering penalties
        wk, wb = box.widths
        mk, mb = box.mid
        return (2 / wk) ** 2 * (k - mk) ** 2 + (2 / wb) ** 2 * (b - mb) ** 2

    k, b, _ = pattern_search_J(23.5, 19.5, 200.0, 0.5, 4.0, box, cost=cost)
    assert k == pytest.approx(box.mid[0], abs=1e-3)
    assert b == pytest.approx(box.mid[1], abs=1e-3)


def test_pattern_search_multistart_consistency():
    rng = np.random.default_rng(2)
    box = GainBox(0.1, 1.0, 10.0, 40.0)
    for _ in range(5):
        k_e = rng.uniform(100.0, 400.0)
        b_e = rng.uniform(0.2, 1.0)
        m_t = rng.uniform(3.5, 4.5)
        seeds = [box.mid] + box.corners()
        results = [pattern_search_J(23.5, 19.5, k_e, b_e, m_t, box, seeds=[s])
                   for s in seeds]
        js = [r[2] for r in results]
        assert max(js) - min(js) < 1e-3       # bowl shape: seeds agree


# ---------------------------------------------------------------------------
# scheduling procedure
# ---------------------------------------------------------------------------

def test_schedule_fallback_on_nonfinite_search(monkeypatch):
    def broken_search(*args, **kwargs):
        return 0.5, 20.0, math.inf

    monkeypatch.setattr(sched, "pattern_search_J", broken_search)
    res = schedule(23.5, 19.5, 200.0, 0.5, 4.0, BOX)
    assert res.provenance == sched.FALLBACK
    assert res.k_f == pytest.approx(0.1)
    assert res.b_f == pytest.approx(19.5)


def test_schedule_centroid_certified_when_ns_nonempty():
    # soft environment with nonempty NS2 region
    res = schedule(23.5, 19.5, 50.0, 1.0, 4.0, BOX)
    assert res.provenance == sched.NS_CENTROID
    sp = switched_params(23.5, 19.5, res.k_f, res.b_f, 50.0, 1.0, 4.0)
    assert check_no_switch(res.condition_id, sp)


def test_ns3_nonempty_band_centroid_certified():
    # soft shallow environment where the contact mode can be overdamped
    # inside the box: the band is nonempty and its centroid passes the raw
    # inequalities (centroid of a convex set lies in the set)
    reg = region_explicit(NS3, 23.5, 19.5, 15.0, 0.5, 4.0, BOX)
    assert not reg.empty
    k_f, b_f = reg.centroid()
    sp = switched_params(23.5, 19.5, k_f, b_f, 15.0, 0.5, 4.0)
    assert check_no_switch(NS3, sp)
    res = schedule(23.5, 19.5, 15.0, 0.5, 4.0, BOX)
    assert res.provenance == sched.NS_CENTROID
    sp2 = switched_params(23.5, 19.5, res.k_f, res.b_f, 15.0, 0.5, 4.0)
    assert check_no_switch(res.condition_id, sp2)


def test_schedule_respects_box_and_certifies_random_draws():
    rng = np.random.default_rng(9)
    for _ in range(300):
        k_e = rng.uniform(50.0, 500.0)
        b_e = rng.uniform(0.1, 1.0)
        m_t = rng.uniform(3.0, 5.0)
        res = schedule(23.5, 19.5, k_e, b_e, m_t, BOX)
        assert BOX.k_f_min <= res.k_f <= BOX.k_f_max
        assert BOX.b_f_min <= res.b_f <= BOX.b_f_max
        if res.provenance == sched.NS_CENTROID:
            sp = switched_params(23.5, 19.5, res.k_f, res.b_f, k_e, b_e, m_t)
            assert check_no_switch(res.condition_id, sp)


def test_schedule_near_critical_contact_mode_stays_finite():
    # at the corner seed (k_f 0.1, b_f 40) the contact mode is within ~1e-5
    # of critical damping but outside the repeated-root tolerance, where
    # the real-root exponents of the contraction factor overflow
    k_e, b_e, m_t = 74.84128427624456, 0.42624656341812006, 4.973329405993329
    res = schedule(23.5, 19.5, k_e, b_e, m_t, GainBox())
    assert BOX.k_f_min <= res.k_f <= BOX.k_f_max
    assert BOX.b_f_min <= res.b_f <= BOX.b_f_max
    sp = switched_params(23.5, 19.5, 0.1, 40.0, k_e, b_e, m_t)
    measured = cycle_contraction(sp.K1, sp.B1, sp.K2, sp.B2)
    assert lambda_pair(sp)[2] == pytest.approx(measured, rel=1e-9)


def test_j_cost_penalties_anchor_midpoint():
    box = GainBox(0.1, 1.0, 10.0, 40.0)
    mk, mb = box.mid
    j_mid = j_cost(mk, mb, 23.5, 19.5, 200.0, 0.5, 4.0, box)
    j_edge = j_cost(box.k_f_max, box.b_f_max, 23.5, 19.5, 200.0, 0.5, 4.0, box)
    sp_mid = switched_params(23.5, 19.5, mk, mb, 200.0, 0.5, 4.0)
    assert j_mid == pytest.approx(lambda_pair(sp_mid)[2])
    assert j_edge > lambda_pair(
        switched_params(23.5, 19.5, box.k_f_max, box.b_f_max, 200.0, 0.5, 4.0))[2]
