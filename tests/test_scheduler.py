import math

import numpy as np
import pytest

from uamsim import scheduler as sched
from uamsim.scheduler import (NS1, NS2, NS3, DegenerateDirection, GainBox,
                              check_no_switch, j_cost, lambda_pair,
                              pattern_search_J, region_explicit, region_grid,
                              schedule, switched_params)

import tick_oracle
from region_oracle import best_region_every_clip, candidates, clip_box, old_order
from region_raster import _boundary_mask, _rasterize_polygon
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


def test_ns3_empty_band_exit_equals_full_tangent_clipping():
    # region_explicit skips the tangent clipping when k_d^2 < 4 m_t k_e
    # (1 + k_f_min); the full clipping must then be empty too. A third of
    # the draws sit within 1e-15..1e-2 (relative) of that boundary.
    rng = np.random.default_rng(31)
    below = above = nonempty = 0
    for i in range(3000):
        k_lo, b_lo = rng.uniform(0.05, 1.0), rng.uniform(0.5, 30.0)
        box = GainBox(k_lo, k_lo + (i % 7 != 0) * rng.uniform(0.0, 2.0),
                      b_lo, b_lo + rng.uniform(1e-3, 60.0))
        k_p, k_d = rng.uniform(1.0, 60.0), rng.uniform(1.0, 60.0)
        k_e, b_e, m_t = rng.uniform(5.0, 600.0), rng.uniform(0.05, 1.5), rng.uniform(1.0, 6.0)
        if i % 3 == 0:
            rel = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-15.0, -2.0)
            k_e = k_d * k_d / (4.0 * m_t * (1.0 + k_lo)) * (1.0 + rel)
            if k_d * k_d < 4.0 * m_t * k_e * (1.0 + k_lo):
                below += 1
            else:
                above += 1
        full = best_region_every_clip(NS3, box, candidates(
            [sched._upper(-b_e, k_d - b_e)],
            sched._tangents(box.k_f_min, box.k_f_max, k_e, b_e, m_t)))
        reg = region_explicit(NS3, k_p, k_d, k_e, b_e, m_t, box)
        assert reg.vertices == full.vertices and reg.area == full.area, i
        nonempty += not reg.empty
    assert below > 300 and above > 300 and nonempty > 100


def test_ns1_softest_environment_matches_grid_oracle():
    # softest admissible environment; the overdamping gate holds at m_t = 4
    assert 4.0 * 4.0 * 23.5 <= 19.5 ** 2
    N = 60
    grid = region_grid(NS1, 23.5, 19.5, 50.0, 1.0, 4.0, BOX, N)
    reg = region_explicit(NS1, 23.5, 19.5, 50.0, 1.0, 4.0, BOX)
    ks = np.linspace(BOX.k_f_min, BOX.k_f_max, N + 1)
    bs = np.linspace(BOX.b_f_min, BOX.b_f_max, N + 1)
    poly = _rasterize_polygon(reg, ks, bs)
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


def test_best_region_keeps_the_largest_clip_above_min_area():
    nothing = (1.0, 0.0, 0.0)                              # k_f <= 0
    sliver = (1.0, 0.0, 0.1 + 1e-12)                       # area ~3e-11
    real = (1.0, 0.0, 0.5)                                 # k_f <= 0.5
    whole = (0.0, 1.0, 40.0)                               # b_f <= 40: the box
    for lines in ([nothing, sliver, real], [real, sliver, nothing],
                  [sliver, real, nothing]):
        for shared in ((), (whole,), (whole, whole)):
            reg = sched._best_region(NS2, BOX, shared, lines)
            assert reg.condition_id == NS2
            assert reg.area == pytest.approx(0.4 * 30.0)
            assert sorted(reg.vertices) == pytest.approx(
                [(0.1, 10.0), (0.1, 40.0), (0.5, 10.0), (0.5, 40.0)])
    assert 0.0 < 30.0 * 1e-12 < sched._MIN_AREA
    for lines in ([nothing, sliver], [sliver], [nothing], []):
        for shared in ((), (whole,), (nothing,)):
            reg = sched._best_region(NS1, BOX, shared, lines)
            assert reg.empty and reg.area == 0.0 and reg.condition_id == NS1
    # an empty shared clip leaves every candidate empty
    reg = sched._best_region(NS2, BOX, (nothing,), [real, whole])
    assert reg.empty and reg.area == 0.0


# tools/log_hashes.py's DRAW_BOXES: the default box, a tall one, a point and
# a box of zero k_f width
DRAW_BOXES = (GainBox(), GainBox(0.1, 1.0, 10.0, 200.0),
              GainBox(0.5, 0.5, 20.0, 20.0), GainBox(0.2, 0.2, 10.0, 40.0))


def _oracle_draw(rng, i):
    """(k_p, k_d, k_e, b_e, m_t, box) of draw i: the boxes cycle through
    DRAW_BOXES, boxes far from the origin, thin boxes, wide boxes and boxes
    over six decades of magnitude."""
    kind = i % 8
    k_d_hi = 60.0
    if kind < 4:
        box = DRAW_BOXES[kind]
    elif kind == 4:                                        # far from the origin
        k, b = rng.uniform(50.0, 150.0), rng.uniform(500.0, 1500.0)
        box = GainBox(k, k + rng.uniform(0.0, 50.0), b, b + rng.uniform(0.0, 500.0))
        k_d_hi = 1500.0
    elif kind == 5:                                        # thin, one or both ways
        k, b = rng.uniform(0.05, 1.0), rng.uniform(1.0, 50.0)
        wk, wb = 10.0 ** rng.uniform(-9.0, -3.0, size=2)
        box = GainBox(k, k * (1.0 + wk * (i % 3 != 0)),
                      b, b * (1.0 + (wb if i % 3 != 1 else 1.0)))
    elif kind == 6:                                        # wide
        k, b = rng.uniform(0.01, 2.0), rng.uniform(0.5, 60.0)
        box = GainBox(k, k + rng.uniform(0.0, 3.0), b, b + rng.uniform(1e-3, 200.0))
    else:                                                  # 1e-4 .. 1e2
        k, b = 10.0 ** rng.uniform(-4.0, 2.0, size=2)
        wk, wb = 10.0 ** rng.uniform(-9.0, 1.0, size=2)
        box = GainBox(k, k * (1.0 + wk), b, b * (1.0 + wb))
        k_d_hi = 10.0 + 2.0 * box.b_f_max
    return (rng.uniform(1.0, 60.0), rng.uniform(1.0, k_d_hi),
            rng.uniform(5.0, 600.0), rng.uniform(0.05, 1.5),
            rng.uniform(1.0, 6.0), box)


def _same_region(got, want):
    return (got.condition_id, got.vertices, got.area) == (
        want.condition_id, want.vertices, want.area)


def _region_calls(monkeypatch, seed, n):
    """(cond_id, box, shared, lines) of every _best_region call that
    region_explicit makes on n oracle draws from default_rng(seed)."""
    calls = []
    builder = sched._best_region

    def recorded(*args):
        calls.append(args)
        return builder(*args)

    with monkeypatch.context() as m:
        m.setattr(sched, "_best_region", recorded)
        rng = np.random.default_rng(seed)
        for i in range(n):
            *params, box = _oracle_draw(rng, i)
            for cond in (NS1, NS2, NS3):
                region_explicit(cond, *params, box)
    return calls


def test_regions_equal_clipping_every_candidate(monkeypatch):
    # every _best_region call of region_explicit, over 10^4 draws, must
    # equal the oracle that clips every candidate [*shared, line] from the
    # box: the same vertices (in order), area and condition, bit for bit.
    # Each call clips the box by the shared half-planes once and that
    # polygon once per line, unless a shared clip leaves nothing: then the
    # call stops after that clip.
    clip = sched._clip_halfplane
    clips = [0]

    def counted_clip(*args):
        clips[0] += 1
        return clip(*args)

    calls = _region_calls(monkeypatch, 22, 10_000)
    monkeypatch.setattr(sched, "_clip_halfplane", counted_clip)
    families = []
    multi = multi_nonempty = stopped = 0
    for cond_id, box, shared, lines in calls:
        base, n_clips = box.corners(), len(lines)
        for hp in shared:
            base, n_clips = clip(base, *hp)[0], n_clips + 1
            if not base:
                n_clips -= len(lines)
                stopped += 1
                break
        before = clips[0]
        got = sched._best_region(cond_id, box, shared, lines)
        assert clips[0] - before == n_clips
        want = best_region_every_clip(cond_id, box, candidates(shared, lines))
        assert _same_region(got, want), (cond_id, box, shared, lines)
        if len(lines) > 1:
            multi += 1
            multi_nonempty += not got.empty
            if len(families) < 400:
                families.append((cond_id, box, shared, lines))
    assert multi > 4000 and multi_nonempty > 2000, (multi, multi_nonempty)
    assert stopped > 0

    # exact ties (a duplicated line) and near-ties (a line moved by 1e-16 to
    # 1e-8 relative), inserted anywhere in real tangent families
    rng = np.random.default_rng(23)
    ties = 0
    for j in range(2000):
        cond_id, box, shared, lines = families[j % len(families)]
        lines = list(lines)
        a, b, c = lines[rng.integers(len(lines))]
        if j % 2 == 0:
            extra = (a, b, c)
        else:
            extra = (a, b, c * (1.0 + rng.choice((-1.0, 1.0))
                                * 10.0 ** rng.uniform(-16.0, -8.0)))
        lines.insert(rng.integers(len(lines) + 1), extra)
        got = sched._best_region(cond_id, box, shared, lines)
        want = best_region_every_clip(cond_id, box, candidates(shared, lines))
        assert _same_region(got, want), (cond_id, box, shared, lines)
        ties += not got.empty
    assert ties > 500


def test_clip_area_equals_shoelace_of_the_clip_bit_for_bit(monkeypatch):
    # the area _clip_halfplane returns with a polygon is 0.5 * abs of
    # _shoelace's signed double area of that polygon, by float.hex: on every
    # clip region_explicit makes over the seed-22 oracle draws, and on the
    # edge cases below
    clip = sched._clip_halfplane
    checked = []

    def checked_clip(poly, a, b, c):
        out, area = clip(poly, a, b, c)
        want = 0.5 * abs(sched._shoelace(out)[0])
        assert area.hex() == want.hex(), (poly, a, b, c)
        checked.append(len(out))
        return out, area

    monkeypatch.setattr(sched, "_clip_halfplane", checked_clip)
    rng = np.random.default_rng(22)
    for i in range(10_000):
        *params, box = _oracle_draw(rng, i)
        for cond in (NS1, NS2, NS3):
            region_explicit(cond, *params, box)
    # 131 832 clips: 21 852 left nothing and 9 982 left five vertices or more
    assert len(checked) > 100_000
    assert sum(n == 0 for n in checked) > 10_000 and sum(n >= 5 for n in checked) > 5000

    def on_line(poly, a, b, c):
        """The vertices at which the clip's f = a*k + b*v - c is 0."""
        return sum(a * k + b * v - c == 0.0 for k, v in poly)

    square = BOX.corners()
    point = [(0.5, 20.0)]
    cases = [                                      # (polygon, line, on_line)
        ([], (1.0, 0.0, 0.5), 0),                  # an empty polygon
        (square, (0.0, 1.0, 100.0), 0),            # keeps every vertex
        (square, (0.0, 1.0, -100.0), 0),           # keeps none
        (square, (1.0, 0.0, 0.5), 0),              # cuts two edges
        (square, (1.0, 0.0, 0.1), 2),              # an edge on the line, kept
        (square, (-1.0, 0.0, -0.1), 2),            # an edge on it, the rest kept
        (square, (30.0, 1.0, 40.0), 1),            # a corner on the line
        (square, (-30.0, -1.0, -40.0), 1),         # and the other side kept
        (point, (1.0, 0.0, 0.5), 1),               # one vertex, on the line
        (point, (1.0, 0.0, 1.0), 0),               # kept
        (point, (1.0, 0.0, 0.0), 0),               # dropped
    ]
    for poly, hp, n_on in cases:
        assert on_line(poly, *hp) == n_on, (poly, hp)
        out, area = clip(poly, *hp)
        assert area.hex() == (0.5 * abs(sched._shoelace(out)[0])).hex(), (poly, hp)
    assert clip([], 1.0, 0.0, 0.5) == ([], 0.0)
    assert clip(square, 0.0, 1.0, -100.0) == ([], 0.0)
    assert clip(square, 0.0, 1.0, 100.0) == (square[1:] + square[:1],
                                             pytest.approx(0.9 * 30.0))
    assert clip(point, 1.0, 0.0, 0.5) == (point, 0.0)


# tools/log_hashes.py's DRAW_RANGES: k_p, k_d, k_e, b_e and m, drawn in order
DRAW_RANGES = ((5, 60), (5, 40), (5, 500), (0.1, 1.5), (2, 6))

# How far the former clip order may move an area, in units of K V =
# k_f_max * b_f_max (the size of the shoelace terms): the largest move over
# every candidate of the 2*10^4 oracle draws of seeds 22 and 5 was
# 2.8e-16 K V, about one unit in the last place. The bound leaves 7x of
# headroom over that.
ORDER_TOL = 2e-15


def _old_builder(cond_id, box, shared, lines):
    """_best_region in its former clip order: [first, line, last]."""
    return best_region_every_clip(cond_id, box,
                                  old_order(cond_id, shared, lines))


def _winner(areas):
    """The index of the candidate _best_region keeps, or None."""
    best = None
    for i, a in enumerate(areas):
        if a >= sched._MIN_AREA and (best is None or a > areas[best]):
            best = i
    return best


def test_clip_order_changes_only_rounding(monkeypatch):
    # both orders clip each candidate by the same half-planes, so the order
    # may move only last bits: the same emptiness, every candidate's area
    # within ORDER_TOL K V, and another winner only where the former order's
    # areas of the two winners tie within that bound
    moved = 0
    for cond_id, box, shared, lines in _region_calls(monkeypatch, 22, 10_000):
        tol = ORDER_TOL * box.k_f_max * box.b_f_max
        new = [0.5 * abs(sched._shoelace(clip_box(box, hps))[0])
               for hps in candidates(shared, lines)]
        old = [0.5 * abs(sched._shoelace(clip_box(box, hps))[0])
               for hps in old_order(cond_id, shared, lines)]
        assert all(abs(a - b) <= tol for a, b in zip(new, old)), (cond_id, box)
        w_new, w_old = _winner(new), _winner(old)
        assert (w_new is None) == (w_old is None), (cond_id, box)
        if w_new != w_old:
            assert abs(old[w_new] - old[w_old]) <= tol, (cond_id, box)
            moved += 1
    assert moved > 0


def test_clip_order_moves_schedule_only_in_last_bits(monkeypatch):
    # tools/log_hashes.py's schedule() draws, against the former clip order:
    # no path changes, the gains agree within 1e-12 of the box widths
    # (1.6e-14 measured), and condition_id changes only between NS2 and NS1
    # whose regions' areas tie within ORDER_TOL K V
    rng = np.random.default_rng(7)
    differ = 0
    for i in range(1000):
        args = [rng.uniform(lo, hi) for lo, hi in DRAW_RANGES]
        box = DRAW_BOXES[i % len(DRAW_BOXES)]
        new = schedule(*args, box)
        with monkeypatch.context() as m:
            m.setattr(sched, "_best_region", _old_builder)
            old = schedule(*args, box)
        if repr(new) == repr(old):
            continue
        differ += 1
        assert (new.provenance, new.J, new.certified) == (
            old.provenance, old.J, old.certified), i
        wk, wb = box.widths
        assert abs(new.k_f - old.k_f) <= 1e-12 * wk, i
        assert abs(new.b_f - old.b_f) <= 1e-12 * wb, i
        if new.condition_id != old.condition_id:
            assert {new.condition_id, old.condition_id} == {NS1, NS2}, i
            a1, a2 = (region_explicit(c, *args, box).area for c in (NS1, NS2))
            assert abs(a1 - a2) <= ORDER_TOL * box.k_f_max * box.b_f_max, i
    assert differ > 0


def test_schedule_breaks_area_ties_ns3_then_ns2_then_ns1(monkeypatch):
    # stand-in regions at distinct places, each centroid passing its check,
    # so the result shows which region was picked
    def square(k):
        return [(k, 20.0), (k + 0.1, 20.0), (k + 0.1, 30.0), (k, 30.0)]

    places = {NS1: 0.1, NS2: 0.4, NS3: 0.7}
    areas = {}
    monkeypatch.setattr(sched, "region_explicit", lambda c, *args: (
        sched.GainRegion(c, square(places[c]), areas[c]) if c in areas
        else sched.GainRegion(c)))
    monkeypatch.setattr(sched, "check_no_switch", lambda c, sp: True)
    for present, winner in (({NS1: 1.0, NS2: 1.0, NS3: 1.0}, NS3),
                            ({NS1: 1.0, NS2: 1.0}, NS2),
                            ({NS1: 1.0, NS3: 1.0}, NS3),
                            ({NS1: 1.0}, NS1),
                            ({NS1: 2.0, NS2: 1.0, NS3: 1.0}, NS1),
                            ({NS1: 1.0, NS2: 2.0, NS3: 2.0}, NS3)):
        areas.clear()
        areas.update(present)
        res = schedule(23.5, 19.5, 200.0, 0.5, 4.2, BOX)
        assert (res.provenance, res.condition_id) == (sched.NS_CENTROID, winner)
        assert (res.k_f, res.b_f) == pytest.approx((places[winner] + 0.05, 25.0))


def test_region_functions_reject_bad_input():
    with pytest.raises(ValueError, match="N must be"):
        region_grid(NS1, 23.5, 19.5, 50.0, 1.0, 4.0, BOX, 0)
    sp = switched_params(23.5, 19.5, 0.5, 20.0, 50.0, 1.0, 4.0)
    with pytest.raises(ValueError, match="unknown condition"):
        check_no_switch("NS4", sp)
    with pytest.raises(ValueError, match="unknown condition"):
        region_explicit("NS4", 23.5, 19.5, 50.0, 1.0, 4.0, BOX)
    with pytest.raises(ValueError, match="no centroid"):
        sched.GainRegion(NS1).centroid()


def test_region_grid_shape_and_counts():
    bm = region_grid(NS2, 23.5, 19.5, 50.0, 1.0, 4.0, BOX, 20)
    assert bm.shape == (21, 21)
    assert bm.size == 441
    # stiff wall: every condition false on the whole grid
    for cond in (NS1, NS2, NS3):
        assert not region_grid(cond, 23.5, 19.5, 500.0, 0.1, 4.2, BOX, 10).any()


def _region_grid_point_by_point(cond_id, k_p, k_d, k_e, b_e, m_t, box, N):
    """region_grid with a SwitchedParams per grid point, as it was built."""
    ks = np.linspace(box.k_f_min, box.k_f_max, N + 1)
    bs = np.linspace(box.b_f_min, box.b_f_max, N + 1)
    out = np.zeros((N + 1, N + 1), dtype=bool)
    for i in range(N + 1):
        k_f = float(ks[i])
        for j in range(N + 1):
            sp = switched_params(k_p, k_d, k_f, float(bs[j]), k_e, b_e, m_t)
            out[i, j] = check_no_switch(cond_id, sp)
    return out


def test_region_grid_equals_a_switched_params_per_point():
    rng = np.random.default_rng(60)
    hits = {NS1: 0, NS2: 0, NS3: 0}
    for d in range(60):
        box = DRAW_BOXES[d % 2] if d % 3 else GainBox(
            *sorted(rng.uniform(0.01, 2.0, size=2)),
            *sorted(rng.uniform(1.0, 120.0, size=2)))
        args = (rng.uniform(1.0, 30.0), rng.uniform(10.0, 60.0),
                rng.uniform(5.0, 300.0), rng.uniform(0.1, 1.5),
                rng.uniform(1.0, 6.0), box, 40)
        for cond in (NS1, NS2, NS3):
            got = region_grid(cond, *args)
            want = _region_grid_point_by_point(cond, *args)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert (got == want).all(), (cond, args)
            hits[cond] += bool(got.any())
    assert min(hits.values()) >= 10, hits
    # a nonpositive mode parameter raises, as SwitchedParams does: K1, B1
    # and K2 of a row, and B2 at a grid point of a negative b_e
    for args in ((-1.0, 19.5, 50.0, 1.0), (23.5, -1.0, 50.0, 1.0),
                 (23.5, 19.5, -50.0, 1.0), (23.5, 19.5, 50.0, -30.0)):
        for grid in (region_grid, _region_grid_point_by_point):
            with pytest.raises(ValueError, match="must be positive"):
                grid(NS2, *args, 4.0, BOX, 10)


def _tangents_numpy(k_lo, k_hi, k_e, b_e, m_t):
    """_tangents with np.linspace and sqrt(m_t k_e) in the loop, as it was."""
    out = []
    for c in np.linspace(k_lo, k_hi, sched._N_SUPPORT):
        c = float(c)
        slope = -b_e + math.sqrt(m_t * k_e) / math.sqrt(1.0 + c)
        val = -b_e * (1.0 + c) + 2.0 * math.sqrt(m_t * k_e * (1.0 + c))
        out.append(sched._lower(slope, val - slope * c))
    return out


def test_linspace_and_tangents_equal_numpy_bit_for_bit():
    def bits(xs):
        return [float(x).hex() for x in xs]

    rng = np.random.default_rng(33)
    for i in range(1000):
        k_lo = rng.uniform(0.01, 2.0)
        k_hi = k_lo if i % 4 == 0 else k_lo + rng.uniform(0.0, 3.0)
        args = (rng.uniform(5.0, 600.0), rng.uniform(0.05, 1.5), rng.uniform(1.0, 6.0))
        got = sched._tangents(k_lo, k_hi, *args)
        want = _tangents_numpy(k_lo, k_hi, *args)
        assert [bits(hp) for hp in got] == [bits(hp) for hp in want], (k_lo, k_hi, args)


def test_region_explicit_inner_and_interior_agreement_sampled():
    rng = np.random.default_rng(11)
    N = 40
    ks = np.linspace(BOX.k_f_min, BOX.k_f_max, N + 1)
    bs = np.linspace(BOX.b_f_min, BOX.b_f_max, N + 1)
    for _ in range(10):
        k_e = rng.uniform(50.0, 500.0)
        b_e = rng.uniform(0.1, 1.0)
        m_t = rng.uniform(3.0, 5.0)
        for cond in (NS1, NS2, NS3):
            grid = region_grid(cond, 23.5, 19.5, k_e, b_e, m_t, BOX, N)
            reg = region_explicit(cond, 23.5, 19.5, k_e, b_e, m_t, BOX)
            poly = _rasterize_polygon(reg, ks, bs)
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


def test_lambda_arc_along_a_shared_eigenvector_is_not_contracting():
    # both modes overdamped, and the mode-difference line is an eigenvector
    # line of both (a zero base in the real-root arc): no arc reaches the
    # turning line, so neither contracts
    sp = sched.SwitchedParams(K1=2.0, B1=3.0, K2=1.0, B2=2.5)
    assert lambda_pair(sp) == (math.inf, math.inf, math.inf)


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

    k, b, J = pattern_search_J(cost, box, [box.mid] + box.corners())
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

    k, b, _ = pattern_search_J(cost, box, [box.mid] + box.corners())
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
        cost = sched._j_evaluator(23.5, 19.5, k_e, b_e, m_t, box)
        results = [pattern_search_J(cost, box, [s]) for s in seeds]
        js = [r[2] for r in results]
        assert max(js) - min(js) < 1e-3       # bowl shape: seeds agree


# ---------------------------------------------------------------------------
# scheduling procedure
# ---------------------------------------------------------------------------

def old_pattern_search(cost, box, seeds):
    # the search loop as it was written on GainBox's methods, for reference
    wk, wb = box.widths
    wk = wk if wk > 0.0 else 1.0
    wb = wb if wb > 0.0 else 1.0

    def _val(k, b):
        v = cost(k, b)
        return v if math.isfinite(v) else math.inf

    best = (math.inf, box.mid[0], box.mid[1])
    for seed in seeds:
        k, b = box.clamp(*seed)
        f0 = _val(k, b)
        sk, sb = 0.25 * wk, 0.25 * wb
        while sk > 1e-4 * wk or sb > 1e-4 * wb:
            improved = False
            for dk, db in ((sk, 0.0), (-sk, 0.0), (0.0, sb), (0.0, -sb)):
                kk, bb = box.clamp(k + dk, b + db)
                ff = _val(kk, bb)
                if ff < f0:
                    k, b, f0 = kk, bb, ff
                    improved = True
            if not improved:
                sk *= 0.5
                sb *= 0.5
        if f0 < best[0]:
            best = (f0, k, b)
    return best[1], best[2], best[0]


def test_pattern_search_equals_old_loop_bit_for_bit():
    # the default cost, seeds inside and outside the box, a cost that is
    # not finite in places and boxes that are a segment or a point
    rng = np.random.default_rng(4)
    boxes = [BOX, GainBox(0.2, 0.2, 10.0, 40.0), GainBox(0.1, 1.0, 25.0, 25.0),
             GainBox(0.5, 0.5, 20.0, 20.0)]
    for i in range(40):
        box = boxes[i % 4]
        k_e, b_e, m_t = rng.uniform(50.0, 500.0), rng.uniform(0.1, 1.0), rng.uniform(3.0, 5.0)

        def cost(k, b):
            return j_cost(k, b, 23.5, 19.5, k_e, b_e, m_t, box)

        def holes(k, b):
            return math.nan if (k * 7.0 + b) % 1.0 < 0.3 else cost(k, b)

        seeds = [box.mid] + box.corners()
        assert (pattern_search_J(sched._j_evaluator(23.5, 19.5, k_e, b_e, m_t, box),
                                 box, seeds)
                == old_pattern_search(cost, box, seeds))
        wild = [(rng.uniform(-1.0, 2.0), rng.uniform(0.0, 50.0)) for _ in range(3)]
        assert (pattern_search_J(holes, box, wild)
                == old_pattern_search(holes, box, wild))


def reference_j(k_f, b_f, k_p, k_d, k_e, b_e, m_t, box):
    try:
        prod = lambda_pair(switched_params(k_p, k_d, k_f, b_f, k_e, b_e, m_t))[2]
    except DegenerateDirection:
        prod = 1.0
    wk, wb = box.widths
    mk, mb = box.mid
    J = prod
    if wk > 0.0:
        J += (2.0 / wk) ** 2 * (k_f - mk) ** 2
    if wb > 0.0:
        J += (2.0 / wb) ** 2 * (b_f - mb) ** 2
    return J


def test_j_cost_equals_switched_params_and_lambda_pair_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(14)
    for i in range(3000):
        k_lo, b_lo = rng.uniform(0.05, 1.0), rng.uniform(5.0, 30.0)
        # a box, a segment or a point in the gain plane
        box = GainBox(k_lo, k_lo + (i % 3 != 1) * rng.uniform(0.0, 2.0),
                      b_lo, b_lo + (i % 3 != 2) * rng.uniform(0.0, 40.0))
        args = (rng.uniform(box.k_f_min, box.k_f_max), rng.uniform(box.b_f_min, box.b_f_max),
                rng.uniform(1.0, 60.0), rng.uniform(1.0, 40.0), rng.uniform(10.0, 600.0),
                rng.uniform(0.05, 1.5), rng.uniform(2.0, 6.0), box)
        assert j_cost(*args) == reference_j(*args)
    # free modes at critical damping (k_d**2 == 4*m_t*k_p exactly), and
    # within 1e-12..1e-4 of it on both sides of the repeated-root tolerance
    # (1e-9), where the real-root power form overflows into the log form
    logs = []

    def counted_log(x_b, x_a, sgn, la, lb):
        logs.append(sgn)
        return real_root_log(x_b, x_a, sgn, la, lb)

    real_root_log = sched._real_root_log
    monkeypatch.setattr(sched, "_real_root_log", counted_log)
    exact = near = 0
    for i in range(3000):
        if i % 4 == 0:
            m_t, k_d = rng.choice((2.0, 4.0)), 2.0 * rng.integers(1, 20)
            k_p = k_d ** 2 / (4.0 * m_t)
            assert k_d ** 2 == 4.0 * m_t * k_p
            exact += 1
        else:
            m_t, k_p = rng.uniform(2.0, 6.0), rng.uniform(1.0, 60.0)
            rel = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, -4.0)
            k_d = math.sqrt(4.0 * m_t * k_p * (1.0 + rel))
            near += abs(rel) > 1e-9
        args = (rng.uniform(0.1, 1.0), rng.uniform(10.0, 40.0), k_p, k_d,
                rng.uniform(10.0, 600.0), rng.uniform(0.05, 1.5), m_t, BOX)
        assert j_cost(*args) == reference_j(*args)
    assert exact == 750 and 1000 < near < 2250
    assert logs.count(-1.0) > 100        # the free mode's log form was taken
    # NaN in any input gives NaN, with or without a nonpositive contact mode
    for k in range(7):
        args = [0.5, 20.0, 23.5, 19.5, 200.0, 0.5, 4.0, BOX]
        args[k] = math.nan
        assert math.isnan(j_cost(*args)) and math.isnan(reference_j(*args))
    args = (-2.0, 20.0, math.nan, 19.5, 200.0, 0.5, 4.0, BOX)      # K1 NaN, K2 < 0
    assert math.isnan(j_cost(*args)) and math.isnan(reference_j(*args))
    # identical modes: the product counts as 1
    box = GainBox(0.1, 0.9, 0.5, 1.5)
    args = (0.5, 1.0, 3.0, 4.0, 2.0, 2.0, 1.7, box)     # K1 = K2, B1 = B2
    with pytest.raises(DegenerateDirection):
        lambda_pair(switched_params(*args[2:4], *args[:2], *args[4:7]))
    assert j_cost(*args) == 1.0 == reference_j(*args)
    assert j_cost(0.9, 0.5, *args[2:]) == reference_j(0.9, 0.5, *args[2:]) > 1.0
    # nonpositive mode parameters
    for bad in ((0.5, 20.0, -1.0, 19.5, 200.0, 0.5, 4.0, BOX),
                (0.5, 20.0, 23.5, 0.0, 200.0, 0.5, 4.0, BOX),
                (0.5, 20.0, 23.5, 19.5, -200.0, 0.5, 4.0, BOX),
                (0.5, -30.0, 23.5, 19.5, 200.0, 0.5, 4.0, BOX),
                (-2.0, 20.0, 23.5, math.nan, 200.0, 0.5, 4.0, BOX)):   # B1 NaN, K2 < 0
        with pytest.raises(ValueError):
            reference_j(*bad)
        with pytest.raises(ValueError):
            j_cost(*bad)


def test_schedule_reports_whether_pattern_search_is_certified():
    # prod is Lambda1*Lambda2 at the returned gains; below 1 certifies them
    for k_e, b_e, m_t, certified in ((200.0, 0.5, 4.2, True), (430.0, 0.55, 3.25, True),
                                     (340.0, 0.5, 4.5, False), (500.0, 0.2, 5.0, False)):
        res = schedule(23.5, 19.5, k_e, b_e, m_t, BOX)
        assert res.provenance == sched.PATTERN_SEARCH
        sp = switched_params(23.5, 19.5, res.k_f, res.b_f, k_e, b_e, m_t)
        assert res.prod == lambda_pair(sp)[2]
        assert res.certified == certified == (res.prod < 1.0)
    assert res.prod > 1.4


def test_schedule_fallback_on_nonfinite_search(monkeypatch):
    def broken_search(*args, **kwargs):
        return 0.5, 20.0, math.inf

    monkeypatch.setattr(sched, "pattern_search_J", broken_search)
    res = schedule(23.5, 19.5, 200.0, 0.5, 4.0, BOX)
    assert res.provenance == sched.FALLBACK
    assert res.k_f == pytest.approx(0.1)
    assert res.b_f == pytest.approx(19.5)
    assert res.prod is None and not res.certified
    # non-finite gains, estimates or box limits are rejected, not searched
    for i in range(5):
        for value in (math.nan, math.inf, -math.inf):
            bad = [23.5, 19.5, 200.0, 0.5, 4.2]      # k_p, k_d, k_e_hat, b_e_hat, m_bar
            bad[i] = value
            with pytest.raises(ValueError, match="finite"):
                schedule(*bad, GainBox())
            with pytest.raises(ValueError, match="finite"):
                region_explicit(NS2, *bad, GainBox())
    with pytest.raises(ValueError, match="positive"):
        schedule(23.5, 0.0, 200.0, 0.5, 4.2, GainBox())
    for limits in ((0.1, math.inf, 10.0, 40.0), (0.1, 1.0, 10.0, math.inf)):
        with pytest.raises(ValueError, match="limits"):
            GainBox(*limits)


def test_schedule_centroid_certified_when_ns_nonempty():
    # soft environment with nonempty NS2 region
    res = schedule(23.5, 19.5, 50.0, 1.0, 4.0, BOX)
    assert res.provenance == sched.NS_CENTROID
    assert res.certified
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


def test_schedule_point_box_exits():
    # the box's one gain pair passes NS3: the region is that single vertex
    box = GainBox(0.5, 0.5, 20.0, 20.0)
    assert region_explicit(NS3, 1.0, 40.0, 10.0, 0.5, 1.0, box).centroid() == (0.5, 20.0)
    res = schedule(1.0, 40.0, 10.0, 0.5, 1.0, box)
    assert (res.provenance, res.condition_id) == (sched.NS_CENTROID, NS3)
    assert (res.k_f, res.b_f) == (0.5, 20.0) and res.certified
    # the free and contact modes are identical at the box's one gain pair:
    # the product is taken as 1, which does not certify
    res = schedule(3.0, 2.0, 2.0, 1.0, 1.0, GainBox(0.5, 0.5, 0.5, 0.5))
    assert res.provenance == sched.PATTERN_SEARCH
    assert (res.k_f, res.b_f) == (0.5, 0.5)
    assert res.J == res.prod == 1.0 and not res.certified


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


def test_warm_start_certifies_where_the_five_seed_search_does():
    # bench ranges, random starts in the box: the warm result is certified
    # exactly when the five-seed one is, at the same J within 1e-7
    rng = np.random.default_rng(18)
    box = GainBox()
    n_search = 0
    for _ in range(300):
        k_e, b_e, m_t = (rng.uniform(50.0, 500.0), rng.uniform(0.1, 1.0),
                         rng.uniform(3.0, 5.0))
        start = (rng.uniform(box.k_f_min, box.k_f_max),
                 rng.uniform(box.b_f_min, box.b_f_max))
        cold = schedule(23.5, 19.5, k_e, b_e, m_t, box)
        warm = schedule(23.5, 19.5, k_e, b_e, m_t, box, start)
        if cold.provenance != sched.PATTERN_SEARCH:
            assert warm == cold
            continue
        n_search += 1
        assert warm.provenance == sched.PATTERN_SEARCH
        assert warm.certified == cold.certified
        assert abs(warm.J - cold.J) <= 1e-7
    assert n_search > 250


def test_uncertified_warm_start_returns_the_five_seed_result():
    # from (0.5, 30) the search alone stops short of the five-seed minimum,
    # uncertified; schedule() then returns the five-seed result unchanged
    k_e, b_e, m_t, box, start = 450.0, 0.5, 4.2, GainBox(), (0.5, 30.0)
    cost = sched._j_evaluator(23.5, 19.5, k_e, b_e, m_t, box)
    k_f, b_f, _ = pattern_search_J(cost, box, [start])
    cold = schedule(23.5, 19.5, k_e, b_e, m_t, box)
    assert (k_f, b_f) != (cold.k_f, cold.b_f)
    assert lambda_pair(switched_params(23.5, 19.5, k_f, b_f, k_e, b_e, m_t))[2] >= 1.0
    assert schedule(23.5, 19.5, k_e, b_e, m_t, box, start) == cold
    assert not cold.certified


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


def test_repeated_root_arc_that_overflows_counts_as_not_contracting():
    # a critically damped free mode (k_d^2 == 4 m_t k_p) whose arc's
    # exponent 2 dK/den overflows (b_f 129.24) or underflows to a zero base
    # raised to -1 (b_f 129.26) near the line den = 0
    box = GainBox(0.1, 1.0, 10.0, 200.0)
    for b_f in (129.24, 129.26):
        assert j_cost(0.5, b_f, 25.0, 20.0, 200.0, 0.5, 4.0, box) == math.inf
        l1, l2, prod = lambda_pair(switched_params(25.0, 20.0, 0.5, b_f, 200.0, 0.5, 4.0))
        assert l1 == math.inf and math.isfinite(l2) and prod == math.inf
    for args in ((156.25, 50.0, 4.475269021423749, 0.4644120011278053, 4.0),
                 (18.0, 12.0, 36.5398426606978, 0.3900397924212447, 2.0)):
        box = GainBox()
        k_f, b_f, J = pattern_search_J(sched._j_evaluator(*args, box), box,
                                       [box.mid] + box.corners())
        assert math.isfinite(J)
        assert GainBox().clamp(k_f, b_f) == (k_f, b_f)


def test_j_cost_penalties_anchor_midpoint():
    box = GainBox(0.1, 1.0, 10.0, 40.0)
    mk, mb = box.mid
    j_mid = j_cost(mk, mb, 23.5, 19.5, 200.0, 0.5, 4.0, box)
    j_edge = j_cost(box.k_f_max, box.b_f_max, 23.5, 19.5, 200.0, 0.5, 4.0, box)
    sp_mid = switched_params(23.5, 19.5, mk, mb, 200.0, 0.5, 4.0)
    assert j_mid == pytest.approx(lambda_pair(sp_mid)[2])
    assert j_edge > lambda_pair(
        switched_params(23.5, 19.5, box.k_f_max, box.b_f_max, 200.0, 0.5, 4.0))[2]


def test_slew_track_equals_min_max_bit_for_bit():
    # the clamp written as comparisons gives min(max(d, -step), step)
    # exactly: NaN and infinite targets, signed zeros, a zero step
    # (rate * dt = 0), and a negative or NaN step, from a rate assigned
    # after construction, which checks it
    values = (0.0, -0.0, 0.55, -1.5, 25.0, 1e-300, math.nan, math.inf,
              -math.inf)
    rates = (0.0, -0.0, 5.0, -5.0, math.nan, math.inf)
    for rate in rates:
        for dt in (0.0, 2e-3):
            for i, k_f in enumerate(values):
                for j, target in enumerate(values):
                    b_f, target_b = values[-1 - i], values[-1 - j]
                    slew = sched.SlewLimitedGains(k_f, b_f)
                    slew.rate = rate
                    got = slew.track(target, target_b, dt)
                    want = tick_oracle.slew_track(k_f, b_f, rate, target,
                                                  target_b, dt)
                    hexes = [v.hex() for v in want]
                    assert [v.hex() for v in got] == hexes
                    assert [slew.k_f.hex(), slew.b_f.hex()] == hexes


def test_slew_rejects_negative_or_nonfinite_rate():
    # a negative rate moved the gains away from their target, and a NaN
    # rate jumped straight to it
    for rate in (-1.0, -1e-300, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="rate must be nonnegative"):
            sched.SlewLimitedGains(0.5, 20.0, rate=rate)
    for rate in (0.0, -0.0, 5.0, 1e300):
        slew = sched.SlewLimitedGains(0.5, 20.0, rate=rate)
        k_f, b_f = slew.track(1.0, 30.0, 1e-3)
        assert 0.5 <= k_f <= 1.0 and 20.0 <= b_f <= 30.0


def test_slew_rejects_negative_or_nonfinite_dt():
    # a NaN dt jumped straight to the target, and a negative one moved the
    # gains away from it; the gains stay where they were
    slew = sched.SlewLimitedGains(0.5, 20.0)
    for dt in (-1.0, -1e-300, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="dt must be nonnegative"):
            slew.track(1.0, 30.0, dt)
        assert (slew.k_f, slew.b_f) == (0.5, 20.0)
    for dt in (0.0, -0.0):
        assert slew.track(1.0, 30.0, dt) == (0.5, 20.0)
    assert slew.track(1.0, 30.0, 0.1) == (1.0, 20.5)
