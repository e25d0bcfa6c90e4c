"""Force-controller gain selection from switched-system stability conditions.

The closed-loop force-direction error dynamics form a planar switched system
with mode matrices [[0, 1], [-K_i, -B_i]] (mode 1 free, mode 2 contact).
Scheduling works on three no-switching gain conditions, each rearranged into
explicit inequalities in the (k_f, b_f) plane, and falls back to minimizing
a finite-switching contraction cost with a derivative-free pattern search:

    1. compute the explicit-inequality region of each no-switching condition
       as a convex polygon clipped to the gain box,
    2. take the centroid of the largest region,
    3. if all are empty, minimize J = Lambda1*Lambda2 + box-centering terms,
    4. if that fails, fall back to (k_f_min, k_d).

Curved region boundaries are replaced by supporting tangent lines, so every
returned polygon is an inner approximation: a certified gain pair always
satisfies the raw inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    dK = sp.K1 - sp.K2
    dB = sp.B1 - sp.B2
    if cond_id == NS1:
        if not (dB < 0.0 and 4.0 * sp.K1 <= sp.B1 ** 2):
            return False
        C = 2.0 * sp.K1 / (sp.B1 - math.sqrt(sp.B1 ** 2 - 4.0 * sp.K1))
        return dK / dB < C
    if cond_id == NS2:
        if not (dB < 0.0 and 4.0 * sp.K2 <= sp.B2 ** 2):
            return False
        lhs = 2.0 * sp.K2 / (sp.B2 + math.sqrt(sp.B2 ** 2 - 4.0 * sp.K2))
        return lhs < dK / dB
    if cond_id == NS3:
        return 0.0 <= dB and 4.0 * sp.K2 <= sp.B2 ** 2
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
        if not (0.0 < self.k_f_min <= self.k_f_max):
            raise ValueError("invalid k_f limits")
        if not (0.0 < self.b_f_min <= self.b_f_max):
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
    """Sutherland-Hodgman clip of a convex polygon against a*k + b*v <= c."""
    if not poly:
        return []
    out = []
    n = len(poly)
    for i in range(n):
        p = poly[i]
        q = poly[(i + 1) % n]
        fp = a * p[0] + b * p[1] - c
        fq = a * q[0] + b * q[1] - c
        if fq <= 0.0:
            if fp > 0.0:
                t = fp / (fp - fq)
                out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
            out.append(q)
        elif fp <= 0.0:
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _polygon_area(poly) -> float:
    if len(poly) < 3:
        return 0.0
    s = 0.0
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        s += x0 * y1 - x1 * y0
    return 0.5 * abs(s)


def _polygon_centroid(poly) -> tuple[float, float]:
    """Area-weighted centroid; falls back to the vertex mean for slivers."""
    n = len(poly)
    a2 = 0.0
    cx = cy = 0.0
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        w = x0 * y1 - x1 * y0
        a2 += w
        cx += (x0 + x1) * w
        cy += (y0 + y1) * w
    if abs(a2) < 1e-12:
        xs = [p[0] for p in poly]
        ys = [p[1] for p in poly]
        return sum(xs) / n, sum(ys) / n
    return cx / (3.0 * a2), cy / (3.0 * a2)


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
        return _polygon_centroid(self.vertices)

    def contains(self, k_f: float, b_f: float, tol: float = 1e-12) -> bool:
        """Point inside the convex polygon (vertices in CCW or CW order)."""
        n = len(self.vertices)
        if n == 0:
            return False
        if n == 1:
            v = self.vertices[0]
            return abs(v[0] - k_f) <= tol and abs(v[1] - b_f) <= tol
        sign = 0
        for i in range(n):
            x0, y0 = self.vertices[i]
            x1, y1 = self.vertices[(i + 1) % n]
            cross = (x1 - x0) * (b_f - y0) - (y1 - y0) * (k_f - x0)
            if abs(cross) <= tol:
                continue
            s = 1 if cross > 0 else -1
            if sign == 0:
                sign = s
            elif s != sign:
                return False
        return True


def _lower(slope: float, icept: float):
    """Half-plane b_f >= slope*k_f + icept."""
    return (slope, -1.0, -icept)


def _upper(slope: float, icept: float):
    """Half-plane b_f <= slope*k_f + icept."""
    return (-slope, 1.0, icept)


def _build_region(cond_id: str, box: GainBox, halfplanes) -> GainRegion:
    poly = box.corners()
    for hp in halfplanes:
        poly = _clip_halfplane(poly, *hp)
        if not poly:
            return GainRegion(cond_id)
    area = _polygon_area(poly)
    if area < _MIN_AREA:
        return GainRegion(cond_id)
    return GainRegion(cond_id, vertices=poly, area=area)


def _best_region(cond_id: str, box: GainBox, candidates) -> GainRegion:
    best = GainRegion(cond_id)
    for halfplanes in candidates:
        r = _build_region(cond_id, box, halfplanes)
        if r.area > best.area:
            best = r
    return best


# ---------------------------------------------------------------------------
# explicit-inequality regions
# ---------------------------------------------------------------------------

def _curve_lower(k: float, k_e: float, b_e: float, m_t: float) -> float:
    """b_f value of the contact-overdamping bound at k_f = k."""
    return -b_e * (1.0 + k) + 2.0 * math.sqrt(m_t * k_e * (1.0 + k))


def _curve_tangent(c: float, k_e: float, b_e: float, m_t: float):
    """(slope, intercept) of the tangent to the overdamping bound at k_f = c.

    The bound is concave, so its tangents lie above it: requiring b_f above
    a tangent is an inner (conservative) version of the raw inequality.
    """
    slope = -b_e + math.sqrt(m_t * k_e) / math.sqrt(1.0 + c)
    val = _curve_lower(c, k_e, b_e, m_t)
    return slope, val - slope * c


def region_explicit(cond_id: str, k_p: float, k_d: float, k_e: float,
                    b_e: float, m_t: float, box: GainBox) -> GainRegion:
    """Explicit-inequality feasible region of one no-switching condition.

    Returns a convex polygon clipped to the gain box (empty vertex list when
    infeasible). The polygon never certifies a gain pair that violates the
    raw inequalities.
    """
    if min(k_p, k_d, k_e, b_e, m_t) <= 0.0:
        raise ValueError("parameters must be positive")
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
        # band between the overdamping curve and the dB >= 0 line
        cs = np.linspace(box.k_f_min, box.k_f_max, _N_SUPPORT)
        cands = []
        for c in cs:
            slope, icept = _curve_tangent(float(c), k_e, b_e, m_t)
            cands.append([_lower(slope, icept), _upper(db_slope, db_icept)])
        return _best_region(cond_id, box, cands)

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
        return _build_region(cond_id, box, [
            _lower(db_slope, db_icept),
            _lower(slope2, icept2),
        ])

    # NS2
    C_l = (k_d - s) / (2.0 * k_p)
    C_u = (k_d + s) / (2.0 * k_p)
    lo_line = (C_l * k_e - b_e, C_u * k_p + C_l * k_e - b_e)
    hi_line = (C_u * k_e - b_e, C_l * k_p + C_u * k_e - b_e)
    band = [_lower(db_slope, db_icept), _lower(*lo_line), _upper(*hi_line)]

    # Window of K2 where the band's lower line over-constrains: there the
    # third raw inequality already holds with the overdamping bound alone.
    # Window edges in u = k_e*(1+k_f):  m_t*(k_p+u)^2 = k_d^2*u.
    u_lo = ((k_d ** 2 - 2.0 * m_t * k_p) - k_d * s) / (2.0 * m_t)
    u_hi = ((k_d ** 2 - 2.0 * m_t * k_p) + k_d * s) / (2.0 * m_t)
    u_min = k_e * (1.0 + box.k_f_min)
    u_max = k_e * (1.0 + box.k_f_max)

    cands = [band]
    if u_min > u_lo and u_min < u_hi:
        # box enters the window from the left edge of the gain box; inside
        # it the lower band line may be replaced by a tangent to the
        # overdamping curve (valid up to the window's right edge, where the
        # band line is exactly the tangent).
        k_hi = box.k_f_max if u_max <= u_hi else (u_hi / k_e - 1.0)
        cs = np.linspace(box.k_f_min, min(k_hi, box.k_f_max), _N_SUPPORT)
        for c in cs:
            slope, icept = _curve_tangent(float(c), k_e, b_e, m_t)
            cands.append([_lower(db_slope, db_icept),
                          _lower(slope, icept),
                          _upper(*hi_line)])
    return _best_region(cond_id, box, cands)


def region_grid(cond_id: str, k_p: float, k_d: float, k_e: float, b_e: float,
                m_t: float, box: GainBox, N: int) -> np.ndarray:
    """Raw-inequality membership over the uniform (N+1)^2 gain grid.

    Straightforward point-by-point search; O(N^2) evaluations. Entry [i, j]
    is the check at k_f index i (row) and b_f index j (column).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    ks = np.linspace(box.k_f_min, box.k_f_max, N + 1)
    bs = np.linspace(box.b_f_min, box.b_f_max, N + 1)
    out = np.zeros((N + 1, N + 1), dtype=bool)
    for i in range(N + 1):
        k_f = float(ks[i])
        for j in range(N + 1):
            sp = switched_params(k_p, k_d, k_f, float(bs[j]), k_e, b_e, m_t)
            out[i, j] = check_no_switch(cond_id, sp)
    return out


# ---------------------------------------------------------------------------
# finite-switching contraction
# ---------------------------------------------------------------------------

def _lambda_mode(K: float, B: float, dK: float, dB: float, i: int) -> float:
    """Contraction factor of one mode's arc of the switching cycle.

    Matches the amplitude ratio of the mode-i trajectory between the
    mode-difference line {dK*z1 + dB*z2 = 0} and the turning line {z2 = 0}
    (trajectory-oracle semantics; exercised in the test suite).
    """
    L = math.hypot(dK, dB)
    sgn = -1.0 if i == 1 else 1.0
    disc = B * B - 4.0 * K

    if abs(disc) <= _REPEATED_ROOT_RTOL * 4.0 * K:
        den = 2.0 * dK - B * dB
        if den == 0.0:
            return math.inf
        base = (B * L / abs(den)) * math.exp(2.0 * dK / den)
        return base ** sgn

    if disc < 0.0:
        w = 0.5 * math.sqrt(-disc)
        Q = B * dK - 2.0 * K * dB
        phi = (-math.atan2(sgn * 2.0 * w * dK, Q)) % math.pi
        br = (K / w) / math.sqrt(dK * dK / L ** 2 + Q * Q / (4.0 * w * w * L * L))
        return (br ** sgn) * math.exp(-(B / (2.0 * w)) * phi)

    r = math.sqrt(disc)
    la = 0.5 * (-B - r)
    lb = 0.5 * (-B + r)
    x_b = abs((dK * lb + K * dB) / (K * L))
    x_a = abs((dK * la + K * dB) / (K * L))
    if x_b == 0.0 or x_a == 0.0:
        return math.inf
    try:
        return (x_b ** (sgn * la / (lb - la))) * (x_a ** (sgn * lb / (la - lb)))
    except OverflowError:
        # near-critical damping: the exponents overflow though the product is
        # finite. Only here use the log form, whose last bits differ.
        try:
            return math.exp(sgn * (la * math.log(x_b) - lb * math.log(x_a))
                            / (lb - la))
        except OverflowError:
            return math.inf


def lambda_pair(sp: SwitchedParams) -> tuple[float, float, float]:
    """(Lambda1, Lambda2, product) of the two-mode switching cycle.

    Product < 1 means successive free/contact alternations contract, so only
    finitely many switches occur.
    """
    dK = sp.K1 - sp.K2
    dB = sp.B1 - sp.B2
    if math.hypot(dK, dB) == 0.0:
        raise DegenerateDirection("identical free/contact modes")
    l1 = _lambda_mode(sp.K1, sp.B1, dK, dB, 1)
    l2 = _lambda_mode(sp.K2, sp.B2, dK, dB, 2)
    return l1, l2, l1 * l2


# ---------------------------------------------------------------------------
# cost and pattern search
# ---------------------------------------------------------------------------

def j_cost(k_f: float, b_f: float, k_p: float, k_d: float, k_e: float,
           b_e: float, m_t: float, box: GainBox) -> float:
    """Finite-switching contraction plus box-centering penalties."""
    try:
        sp = switched_params(k_p, k_d, k_f, b_f, k_e, b_e, m_t)
        _, _, prod = lambda_pair(sp)
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


def pattern_search_J(k_p: float, k_d: float, k_e: float, b_e: float,
                     m_t: float, box: GainBox, seeds=None,
                     cost=None) -> tuple[float, float, float]:
    """Coordinate pattern search minimizing J over the gain box.

    Polls +/- one step along each axis, halving the step when no poll
    improves, until the step falls below 1e-4 of the box width. Multi-start
    over the supplied seeds (default: box midpoint plus the four corners).
    """
    if cost is None:
        def cost(k, b):
            return j_cost(k, b, k_p, k_d, k_e, b_e, m_t, box)
    if seeds is None:
        seeds = [box.mid] + box.corners()
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


# ---------------------------------------------------------------------------
# scheduling procedure
# ---------------------------------------------------------------------------

NS_CENTROID = "NS-centroid"
PATTERN_SEARCH = "PatternSearch"
FALLBACK = "Fallback"

_TIE_RANK = {NS3: 3, NS2: 2, NS1: 1}


@dataclass
class ScheduleResult:
    k_f: float
    b_f: float
    provenance: str
    condition_id: str | None = None
    J: float | None = None


def schedule(k_p: float, k_d: float, k_e_hat: float, b_e_hat: float,
             m_bar: float, box: GainBox) -> ScheduleResult:
    """Pick force-controller gains for the current environment estimates."""
    regions = [region_explicit(c, k_p, k_d, k_e_hat, b_e_hat, m_bar, box)
               for c in _CONDITIONS]
    nonempty = [r for r in regions if not r.empty]
    if nonempty:
        best = max(nonempty, key=lambda r: (r.area, _TIE_RANK[r.condition_id]))
        k_f, b_f = best.centroid()
        k_f, b_f = box.clamp(k_f, b_f)
        sp = switched_params(k_p, k_d, k_f, b_f, k_e_hat, b_e_hat, m_bar)
        if check_no_switch(best.condition_id, sp):
            return ScheduleResult(k_f, b_f, NS_CENTROID, best.condition_id)
        # numerically marginal sliver: fall through to the search

    k_f, b_f, J = pattern_search_J(k_p, k_d, k_e_hat, b_e_hat, m_bar, box)
    if math.isfinite(J):
        k_f, b_f = box.clamp(k_f, b_f)
        return ScheduleResult(k_f, b_f, PATTERN_SEARCH, J=J)

    k_f, b_f = box.clamp(box.k_f_min, k_d)
    return ScheduleResult(k_f, b_f, FALLBACK)


@dataclass
class SlewLimitedGains:
    """Rate-limits scheduled gain changes to avoid control chatter."""

    k_f: float
    b_f: float
    rate: float = 5.0            # units/s per gain

    def track(self, target_k: float, target_b: float, dt: float) -> tuple[float, float]:
        step = self.rate * dt
        self.k_f += min(max(target_k - self.k_f, -step), step)
        self.b_f += min(max(target_b - self.b_f, -step), step)
        return self.k_f, self.b_f
