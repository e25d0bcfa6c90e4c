"""Force-controller gain selection from switched-system stability conditions.

The closed-loop force-direction error dynamics form a planar switched system
with mode matrices [[0, 1], [-K_i, -B_i]] (mode 1 free, mode 2 contact).
Scheduling works on three no-switching gain conditions, each rearranged into
explicit inequalities in the (k_f, b_f) plane, and falls back to minimizing
a finite-switching contraction cost with a derivative-free pattern search:

    1. compute the explicit-inequality region of each no-switching condition
       as a convex polygon clipped to the gain box,
    2. take the centroid of the largest region, each region being the
       largest clip of the box among its candidate half-plane sets, and
       on equal areas prefer NS3, then NS2, then NS1,
    3. if all are empty, minimize J = Lambda1*Lambda2 + box-centering terms,
    4. if that fails, fall back to (k_f_min, k_d).

Curved region boundaries are replaced by supporting tangent lines, so every
returned polygon is an inner approximation: a certified gain pair always
satisfies the raw inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import atan2, exp, hypot, inf, log, pi, sqrt

import numpy as np

NS1, NS2, NS3 = "NS1", "NS2", "NS3"
_CONDITIONS = (NS1, NS2, NS3)

_REPEATED_ROOT_RTOL = 1e-9
_MIN_AREA = 1e-9
_N_SUPPORT = 32          # tangent lines tried along a curved region boundary


class DegenerateDirection(Exception):
    """Identical switched modes: the mode-difference direction is undefined."""


@dataclass
class SwitchedParams:
    K1: float
    B1: float
    K2: float
    B2: float

    def __post_init__(self):
        if min(self.K1, self.B1, self.K2, self.B2) <= 0.0:
            raise ValueError("switched-system parameters must be positive")


def switched_params(k_p: float, k_d: float, k_f: float, b_f: float,
                    k_e: float, b_e: float, m_t: float) -> SwitchedParams:
    """Mode stiffness/damping of the free and contact error dynamics."""
    return SwitchedParams(
        K1=k_p / m_t,
        B1=k_d / m_t,
        K2=(1.0 + k_f) * k_e / m_t,
        B2=((1.0 + k_f) * b_e + b_f) / m_t,
    )


# ---------------------------------------------------------------------------
# raw no-switching inequalities (grid-search oracle form)
# ---------------------------------------------------------------------------

def check_no_switch(cond_id: str, sp: SwitchedParams) -> bool:
    """Evaluate one raw no-switching inequality set exactly as stated."""
    return _no_switch(cond_id, sp.K1, sp.B1, sp.K2, sp.B2)


def _no_switch(cond_id: str, K1: float, B1: float, K2: float, B2: float) -> bool:
    """check_no_switch on the four mode parameters as floats."""
    dK = K1 - K2
    dB = B1 - B2
    if cond_id == NS1:
        if not (dB < 0.0 and 4.0 * K1 <= B1 ** 2):
            return False
        C = 2.0 * K1 / (B1 - math.sqrt(B1 ** 2 - 4.0 * K1))
        return dK / dB < C
    if cond_id == NS2:
        if not (dB < 0.0 and 4.0 * K2 <= B2 ** 2):
            return False
        lhs = 2.0 * K2 / (B2 + math.sqrt(B2 ** 2 - 4.0 * K2))
        return lhs < dK / dB
    if cond_id == NS3:
        return 0.0 <= dB and 4.0 * K2 <= B2 ** 2
    raise ValueError(f"unknown condition {cond_id!r}")


# ---------------------------------------------------------------------------
# gain box and polygon machinery
# ---------------------------------------------------------------------------

@dataclass
class GainBox:
    k_f_min: float = 0.1
    k_f_max: float = 1.0
    b_f_min: float = 10.0
    b_f_max: float = 40.0

    def __post_init__(self):
        if not (0.0 < self.k_f_min <= self.k_f_max < math.inf):
            raise ValueError("invalid k_f limits")
        if not (0.0 < self.b_f_min <= self.b_f_max < math.inf):
            raise ValueError("invalid b_f limits")

    @property
    def mid(self) -> tuple[float, float]:
        return (0.5 * (self.k_f_min + self.k_f_max),
                0.5 * (self.b_f_min + self.b_f_max))

    @property
    def widths(self) -> tuple[float, float]:
        return (self.k_f_max - self.k_f_min, self.b_f_max - self.b_f_min)

    def corners(self) -> list[tuple[float, float]]:
        return [(self.k_f_min, self.b_f_min), (self.k_f_max, self.b_f_min),
                (self.k_f_max, self.b_f_max), (self.k_f_min, self.b_f_max)]

    def clamp(self, k_f: float, b_f: float) -> tuple[float, float]:
        return (min(max(k_f, self.k_f_min), self.k_f_max),
                min(max(b_f, self.b_f_min), self.b_f_max))

    def is_point(self) -> bool:
        return self.k_f_min == self.k_f_max and self.b_f_min == self.b_f_max


def _clip_halfplane(poly, a, b, c):
    """Sutherland-Hodgman clip of a convex polygon against a*k + b*v <= c.

    Returns (polygon, area). The area sums the shoelace term of each pair of
    vertices as they are emitted, then of (last, first): _shoelace's terms in
    its order, so it is 0.5 * abs(_shoelace(polygon)[0]) bit for bit.
    """
    out = []
    a2 = 0.0
    if not poly:
        return out, a2
    px, py = poly[0]
    fp = a * px + b * py - c
    for q in poly[1:] + poly[:1]:             # edges (0, 1), ..., (n-1, 0)
        qx, qy = q
        fq = a * qx + b * qy - c
        if (fp > 0.0) != (fq > 0.0):
            t = fp / (fp - fq)
            x, y = px + t * (qx - px), py + t * (qy - py)
            if out:
                a2 += lx * y - x * ly
            out.append((x, y))
            lx, ly = x, y
        if fq <= 0.0:
            if out:
                a2 += lx * qy - qx * ly
            out.append(q)
            lx, ly = qx, qy
        px, py, fp = qx, qy, fq
    if out:
        x0, y0 = out[0]
        a2 += lx * y0 - x0 * ly
    return out, 0.5 * abs(a2)


def _shoelace(poly) -> tuple[float, float, float]:
    """Signed double area and the two centroid sums of a polygon, in one pass."""
    n = len(poly)
    a2 = cx = cy = 0.0
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        w = x0 * y1 - x1 * y0
        a2 += w
        cx += (x0 + x1) * w
        cy += (y0 + y1) * w
    return a2, cx, cy


@dataclass
class GainRegion:
    condition_id: str
    vertices: list = field(default_factory=list)
    area: float = 0.0

    @property
    def empty(self) -> bool:
        return len(self.vertices) == 0

    def centroid(self) -> tuple[float, float]:
        if self.empty:
            raise ValueError("empty region has no centroid")
        if len(self.vertices) == 1:
            return tuple(self.vertices[0])
        a2, cx, cy = _shoelace(self.vertices)
        return cx / (3.0 * a2), cy / (3.0 * a2)


def _lower(slope: float, icept: float):
    """Half-plane b_f >= slope*k_f + icept."""
    return (slope, -1.0, -icept)


def _upper(slope: float, icept: float):
    """Half-plane b_f <= slope*k_f + icept."""
    return (-slope, 1.0, icept)


def _best_region(cond_id: str, box: GainBox, shared, lines) -> GainRegion:
    """The largest clip of the box over the candidate half-plane sets
    [*shared, line], one per line; the first of equal areas, and empty if
    none reaches _MIN_AREA.

    The box is clipped by the shared half-planes once, in order, and that
    polygon once by each line: len(shared) + len(lines) clips in all, or
    only the shared clips up to one that leaves nothing.
    """
    base = box.corners()
    for hp in shared:
        base = _clip_halfplane(base, *hp)[0]
        if not base:            # then every candidate is empty
            return GainRegion(cond_id)
    best = GainRegion(cond_id)
    for hp in lines:
        poly, area = _clip_halfplane(base, *hp)
        if area >= _MIN_AREA and area > best.area:
            best = GainRegion(cond_id, vertices=poly, area=area)
    return best


# ---------------------------------------------------------------------------
# explicit-inequality regions
# ---------------------------------------------------------------------------

def _tangents(k_lo: float, k_hi: float, k_e: float, b_e: float, m_t: float):
    """Half-planes b_f >= tangent at _N_SUPPORT points k_f in [k_lo, k_hi].

    The contact-overdamping bound b_f = -b_e(1+k_f) + 2 sqrt(m_t k_e (1+k_f))
    is concave, so its tangents lie above it: requiring b_f above a tangent
    is an inner (conservative) version of the raw inequality.
    """
    mk = m_t * k_e
    root_mk = math.sqrt(mk)
    out = []
    for c in np.linspace(k_lo, k_hi, _N_SUPPORT).tolist():
        slope = -b_e + root_mk / math.sqrt(1.0 + c)
        val = -b_e * (1.0 + c) + 2.0 * math.sqrt(mk * (1.0 + c))
        out.append(_lower(slope, val - slope * c))
    return out


def region_explicit(cond_id: str, k_p: float, k_d: float, k_e: float,
                    b_e: float, m_t: float, box: GainBox) -> GainRegion:
    """Explicit-inequality feasible region of one no-switching condition.

    Returns a convex polygon clipped to the gain box (empty vertex list when
    infeasible). The polygon never certifies a gain pair that violates the
    raw inequalities. NS3 returns empty without clipping when
    k_d^2 < 4 m_t k_e (1 + k_f_min): its band is then empty at every k_f.
    """
    if not (0.0 < k_p < inf and 0.0 < k_d < inf and 0.0 < k_e < inf
            and 0.0 < b_e < inf and 0.0 < m_t < inf):
        finite = all(map(math.isfinite, (k_p, k_d, k_e, b_e, m_t)))
        raise ValueError(f"parameters must be {'positive' if finite else 'finite'}")
    if cond_id not in _CONDITIONS:
        raise ValueError(f"unknown condition {cond_id!r}")

    if box.is_point():
        k, b = box.k_f_min, box.b_f_min
        sp = switched_params(k_p, k_d, k, b, k_e, b_e, m_t)
        if check_no_switch(cond_id, sp):
            return GainRegion(cond_id, vertices=[(k, b)], area=0.0)
        return GainRegion(cond_id)

    # shared lines
    db_slope, db_icept = -b_e, k_d - b_e        # b_f vs k_d - b_e(1+k_f)

    if cond_id == NS3:
        # band between the overdamping curve and the dB >= 0 line, empty
        # when the line lies below the curve (so below every tangent) at
        # every k_f >= k_f_min
        if k_d * k_d < 4.0 * m_t * k_e * (1.0 + box.k_f_min):
            return GainRegion(cond_id)
        return _best_region(
            cond_id, box, (_upper(db_slope, db_icept),),
            _tangents(box.k_f_min, box.k_f_max, k_e, b_e, m_t))

    gate = 4.0 * m_t * k_p <= k_d ** 2
    if not gate:
        # free mode underdamped: NS1 is raw-false everywhere and NS2 can be
        # shown infeasible (its overdamping bound exceeds the remaining
        # upper bound for every k_f), so both regions are empty.
        return GainRegion(cond_id)

    s = math.sqrt(k_d ** 2 - 4.0 * m_t * k_p)

    if cond_id == NS1:
        C = 2.0 * k_p / (k_d - s)
        slope2 = k_e / C - b_e
        icept2 = (k_e - k_p) / C + k_d - b_e
        return _best_region(cond_id, box, (_lower(db_slope, db_icept),),
                            [_lower(slope2, icept2)])

    # NS2
    C_l = (k_d - s) / (2.0 * k_p)
    C_u = (k_d + s) / (2.0 * k_p)
    lo_line = (C_l * k_e - b_e, C_u * k_p + C_l * k_e - b_e)
    hi_line = (C_u * k_e - b_e, C_l * k_p + C_u * k_e - b_e)

    # Window of K2 where the band's lower line over-constrains: there the
    # third raw inequality already holds with the overdamping bound alone.
    # Window edges in u = k_e*(1+k_f):  m_t*(k_p+u)^2 = k_d^2*u.
    u_lo = ((k_d ** 2 - 2.0 * m_t * k_p) - k_d * s) / (2.0 * m_t)
    u_hi = ((k_d ** 2 - 2.0 * m_t * k_p) + k_d * s) / (2.0 * m_t)
    u_min = k_e * (1.0 + box.k_f_min)
    u_max = k_e * (1.0 + box.k_f_max)

    lines = [_lower(*lo_line)]                 # the band first
    if u_min > u_lo and u_min < u_hi:
        # box enters the window from the left edge of the gain box; inside
        # it the lower band line may be replaced by a tangent to the
        # overdamping curve (valid up to the window's right edge, where the
        # band line is exactly the tangent).
        k_hi = box.k_f_max if u_max <= u_hi else (u_hi / k_e - 1.0)
        lines += _tangents(box.k_f_min, min(k_hi, box.k_f_max), k_e, b_e, m_t)
    return _best_region(cond_id, box,
                        (_lower(db_slope, db_icept), _upper(*hi_line)), lines)


def region_grid(cond_id: str, k_p: float, k_d: float, k_e: float, b_e: float,
                m_t: float, box: GainBox, N: int) -> np.ndarray:
    """Raw-inequality membership over the uniform (N+1)^2 gain grid.

    Straightforward point-by-point search; O(N^2) evaluations. Entry [i, j]
    is the check at k_f index i (row) and b_f index j (column): the mode
    parameters of switched_params, with K1 and B1 computed once and K2 once
    per row, and check_no_switch on them. A nonpositive parameter raises
    ValueError, as in SwitchedParams.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if cond_id not in _CONDITIONS:
        raise ValueError(f"unknown condition {cond_id!r}")
    bs = np.linspace(box.b_f_min, box.b_f_max, N + 1).tolist()
    K1 = k_p / m_t
    B1 = k_d / m_t
    rows = []
    for k_f in np.linspace(box.k_f_min, box.k_f_max, N + 1).tolist():
        K2 = (1.0 + k_f) * k_e / m_t
        lo = min(K1, B1, K2)
        row = []
        for b_f in bs:
            B2 = ((1.0 + k_f) * b_e + b_f) / m_t
            if min(lo, B2) <= 0.0:            # min(K1, B1, K2, B2), as SwitchedParams
                raise ValueError("switched-system parameters must be positive")
            row.append(_no_switch(cond_id, K1, B1, K2, B2))
        rows.append(row)
    return np.array(rows, dtype=bool)


# ---------------------------------------------------------------------------
# finite-switching contraction
# ---------------------------------------------------------------------------

def _lambda_mode(K: float, B: float, dK: float, dB: float, L: float,
                 sgn: float) -> float:
    """Contraction factor of one mode's arc of the switching cycle.

    Matches the amplitude ratio of the trajectory of the mode with sgn -1.0
    (free) or +1.0 (contact) between the mode-difference line
    {dK*z1 + dB*z2 = 0} and the turning line {z2 = 0} (trajectory-oracle
    semantics; exercised in the test suite). L is hypot(dK, dB), shared by
    the two arcs of a cycle. An arc whose evaluation overflows or divides by
    zero counts as not contracting (inf).
    """
    disc = B * B - 4.0 * K

    if abs(disc) <= _REPEATED_ROOT_RTOL * 4.0 * K:
        den = 2.0 * dK - B * dB
        try:                                     # den == 0.0 included
            return ((B * L / abs(den)) * exp(2.0 * dK / den)) ** sgn
        except (OverflowError, ZeroDivisionError):
            return inf

    if disc < 0.0:
        w = 0.5 * sqrt(-disc)
        Q = B * dK - 2.0 * K * dB
        phi = (-atan2(sgn * 2.0 * w * dK, Q)) % pi
        br = (K / w) / sqrt(dK * dK / L ** 2 + Q * Q / (4.0 * w * w * L * L))
        return (br ** sgn) * exp(-(B / (2.0 * w)) * phi)

    r = sqrt(disc)
    la = 0.5 * (-B - r)
    lb = 0.5 * (-B + r)
    x_b = abs((dK * lb + K * dB) / (K * L))
    x_a = abs((dK * la + K * dB) / (K * L))
    if x_b == 0.0 or x_a == 0.0:
        return inf
    try:
        return (x_b ** (sgn * la / (lb - la))) * (x_a ** (sgn * lb / (la - lb)))
    except OverflowError:
        return _real_root_log(x_b, x_a, sgn, la, lb)


def _real_root_log(x_b: float, x_a: float, sgn: float, la: float,
                   lb: float) -> float:
    """The real-root arc in log form, where its power form overflows.

    Near critical damping the exponents overflow though the product is
    finite. Only there use the log form, whose last bits differ.
    """
    try:
        return exp(sgn * (la * log(x_b) - lb * log(x_a)) / (lb - la))
    except OverflowError:
        return inf


def lambda_pair(sp: SwitchedParams) -> tuple[float, float, float]:
    """(Lambda1, Lambda2, product) of the two-mode switching cycle.

    Product < 1 means successive free/contact alternations contract, so only
    finitely many switches occur.
    """
    dK = sp.K1 - sp.K2
    dB = sp.B1 - sp.B2
    L = hypot(dK, dB)
    if L == 0.0:
        raise DegenerateDirection("identical free/contact modes")
    l1 = _lambda_mode(sp.K1, sp.B1, dK, dB, L, -1.0)
    l2 = _lambda_mode(sp.K2, sp.B2, dK, dB, L, 1.0)
    return l1, l2, l1 * l2


# ---------------------------------------------------------------------------
# cost and pattern search
# ---------------------------------------------------------------------------

def _j_evaluator(k_p: float, k_d: float, k_e: float, b_e: float, m_t: float,
                box: GainBox):
    """J(k_f, b_f) of one search, with what is fixed for the call computed once.

    J = Lambda1*Lambda2 + (2/w_k)^2 (k_f - mid_k)^2 + (2/w_b)^2 (b_f - mid_b)^2,
    with the product taken as 1 when the two modes are identical. A
    nonpositive mode parameter raises ValueError, as in switched_params.
    """
    K1 = k_p / m_t
    B1 = k_d / m_t
    lo = min(K1, B1)
    if lo <= 0.0:
        raise ValueError("switched-system parameters must be positive")
    (wk, wb), (mk, mb) = box.widths, box.mid
    ck = (2.0 / wk) ** 2 if wk > 0.0 else 0.0
    cb = (2.0 / wb) ** 2 if wb > 0.0 else 0.0
    arc = _lambda_mode

    def cost(k_f: float, b_f: float) -> float:
        K2 = (1.0 + k_f) * k_e / m_t
        B2 = ((1.0 + k_f) * b_e + b_f) / m_t
        if (K2 <= 0.0 or B2 <= 0.0) and lo == lo:   # min(K1, B1, K2, B2) <= 0
            raise ValueError("switched-system parameters must be positive")
        dK = K1 - K2
        dB = B1 - B2
        L = hypot(dK, dB)
        if L == 0.0:
            J = 1.0
        else:
            J = arc(K1, B1, dK, dB, L, -1.0) * arc(K2, B2, dK, dB, L, 1.0)
        return J + ck * (k_f - mk) ** 2 + cb * (b_f - mb) ** 2

    return cost


def j_cost(k_f: float, b_f: float, k_p: float, k_d: float, k_e: float,
           b_e: float, m_t: float, box: GainBox) -> float:
    """J at one gain pair: the cost of _j_evaluator, evaluated once."""
    return _j_evaluator(k_p, k_d, k_e, b_e, m_t, box)(k_f, b_f)


def pattern_search_J(cost, box: GainBox, seeds) -> tuple[float, float, float]:
    """Coordinate pattern search minimizing cost(k_f, b_f) over the gain box.

    Polls +/- one step along each axis, halving the step when no poll
    improves, until the step falls below 1e-4 of the box width. Multi-start
    over the seeds, each clamped to the box; returns (k_f, b_f, cost).
    """
    k_lo, k_hi, b_lo, b_hi = box.k_f_min, box.k_f_max, box.b_f_min, box.b_f_max
    wk, wb = box.widths
    wk = wk if wk > 0.0 else 1.0
    wb = wb if wb > 0.0 else 1.0
    tol_k, tol_b = 1e-4 * wk, 1e-4 * wb
    isfinite = math.isfinite

    best = (inf, box.mid[0], box.mid[1])
    for seed in seeds:
        k, b = box.clamp(*seed)
        f0 = cost(k, b)
        if not isfinite(f0):
            f0 = inf
        sk, sb = 0.25 * wk, 0.25 * wb
        while sk > tol_k or sb > tol_b:
            improved = False
            for dk, db in ((sk, 0.0), (-sk, 0.0), (0.0, sb), (0.0, -sb)):
                # box.clamp, as comparisons on local bounds
                kk, bb = k + dk, b + db
                kk = k_lo if kk < k_lo else k_hi if kk > k_hi else kk
                bb = b_lo if bb < b_lo else b_hi if bb > b_hi else bb
                ff = cost(kk, bb)
                if not isfinite(ff):
                    ff = inf
                if ff < f0:
                    k, b, f0 = kk, bb, ff
                    improved = True
            if not improved:
                sk *= 0.5
                sb *= 0.5
        if f0 < best[0]:
            best = (f0, k, b)
    return best[1], best[2], best[0]


# ---------------------------------------------------------------------------
# scheduling procedure
# ---------------------------------------------------------------------------

NS_CENTROID = "NS-centroid"
PATTERN_SEARCH = "PatternSearch"
FALLBACK = "Fallback"


@dataclass
class ScheduleResult:
    """Scheduled gains, the path that chose them and whether they are certified.

    NS-centroid gains satisfy a no-switching condition, so they are
    certified. PatternSearch gains are certified when prod, their
    Lambda1*Lambda2 (1 for identical modes), is below 1: alternations then
    contract. Fallback gains are never certified.
    """

    k_f: float
    b_f: float
    provenance: str
    condition_id: str | None = None
    J: float | None = None
    prod: float | None = None
    certified: bool = False


def schedule(k_p: float, k_d: float, k_e_hat: float, b_e_hat: float,
             m_bar: float, box: GainBox,
             start: tuple[float, float] | None = None) -> ScheduleResult:
    """Pick force-controller gains for the current environment estimates.

    start, a (k_f, b_f) pair such as the gains the last call chose, warm-
    starts the search: a search from start alone is kept if its result is
    certified. Otherwise, or without start, the search starts from the box
    midpoint and its four corners. The NS-centroid and Fallback paths do
    not depend on start.

    Not guaranteed: a kept warm result is a local minimum from one seed.
    Where the five-seed search finds the same minimum, J can differ in its
    last bits (within 3e-8 at k_e in [50, 500], b_e in [0.1, 1], m in
    [3, 5] and the default box and bench gains). Over wider ranges J can be
    higher: on 3000 draws over the ranges and boxes of the schedule()
    fingerprint in tools/log_hashes.py, from random starts, 21 of 2055
    certified warm results had a J above the five-seed one by more than
    1e-7, by up to 1.32. No draw lost its certification.

    Where the NS2 and NS1 regions are the same set (NS2's band line is
    NS1's line), their computed areas can differ in the last place, and
    that rounding decides which of the two is taken.

    Raises ValueError, through region_explicit, when a gain or an estimate
    is not finite or not positive.
    """
    # NS3 first: max keeps the first of equal areas
    regions = [region_explicit(c, k_p, k_d, k_e_hat, b_e_hat, m_bar, box)
               for c in (NS3, NS2, NS1)]
    nonempty = [r for r in regions if not r.empty]
    if nonempty:
        best = max(nonempty, key=lambda r: r.area)
        k_f, b_f = best.centroid()
        k_f, b_f = box.clamp(k_f, b_f)
        sp = switched_params(k_p, k_d, k_f, b_f, k_e_hat, b_e_hat, m_bar)
        if check_no_switch(best.condition_id, sp):
            return ScheduleResult(k_f, b_f, NS_CENTROID, best.condition_id,
                                  certified=True)
        # numerically marginal sliver: fall through to the search

    cost = _j_evaluator(k_p, k_d, k_e_hat, b_e_hat, m_bar, box)

    def searched(seeds) -> ScheduleResult | None:
        k_f, b_f, J = pattern_search_J(cost, box, seeds)
        if not math.isfinite(J):
            return None
        try:
            prod = lambda_pair(switched_params(k_p, k_d, k_f, b_f, k_e_hat,
                                               b_e_hat, m_bar))[2]
        except DegenerateDirection:
            prod = 1.0
        return ScheduleResult(k_f, b_f, PATTERN_SEARCH, J=J, prod=prod,
                              certified=prod < 1.0)

    res = searched([start]) if start is not None else None
    if res is None or not res.certified:
        res = searched([box.mid] + box.corners())
    if res is not None:
        return res

    k_f, b_f = box.clamp(box.k_f_min, k_d)
    return ScheduleResult(k_f, b_f, FALLBACK)


@dataclass
class SlewLimitedGains:
    """Rate-limits scheduled gain changes to avoid control chatter."""

    k_f: float
    b_f: float
    rate: float = 5.0            # units/s per gain

    def __post_init__(self):
        if not 0.0 <= self.rate < inf:
            raise ValueError("rate must be nonnegative and finite")

    def track(self, target_k: float, target_b: float, dt: float) -> tuple[float, float]:
        step = self.rate * dt       # then min(max(d, -step), step), inlined
        dk, db = target_k - self.k_f, target_b - self.b_f
        dk, db = -step if -step > dk else dk, -step if -step > db else db
        self.k_f += step if step < dk else dk
        self.b_f += step if step < db else db
        return self.k_f, self.b_f
