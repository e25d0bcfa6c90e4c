"""The region builder's loop without its sharing: every candidate clipped
from the box.

`best_region_every_clip(cond_id, box, candidates)` clips the gain box by
each candidate's half-planes in order, with its own copy of the
Sutherland-Hodgman clip, and keeps the largest clip: the first of equal
areas, and an empty region if none reaches `_MIN_AREA`. With the candidates
`[*shared, line]` of `candidates(shared, lines)` it is the oracle that
`scheduler._best_region`, which clips the box by the shared half-planes
once for all lines, must equal bit for bit. With the candidates of
`old_order` it is the builder's former clip order [first, line, last]: the
same half-plane sets, whose vertices that order rounds differently, so it
agrees with `_best_region` only up to rounding.
"""

from uamsim.scheduler import _MIN_AREA, NS3, GainRegion, _shoelace


def clip_halfplane(poly, a, b, c):
    """Sutherland-Hodgman clip of a convex polygon against a*k + b*v <= c."""
    out = []
    n = len(poly)
    for i in range(n):
        p = poly[i]
        q = poly[(i + 1) % n]
        fp = a * p[0] + b * p[1] - c
        fq = a * q[0] + b * q[1] - c
        if (fp > 0.0) != (fq > 0.0):
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        if fq <= 0.0:
            out.append(q)
    return out


def clip_box(box, halfplanes) -> list:
    """The gain box clipped by each half-plane in turn."""
    poly = box.corners()
    for hp in halfplanes:
        poly = clip_halfplane(poly, *hp)
    return poly


def best_region_every_clip(cond_id, box, candidates) -> GainRegion:
    """The largest clip of the box over the candidate half-plane sets; the
    first of equal areas, and empty if none reaches _MIN_AREA."""
    best = GainRegion(cond_id)
    for halfplanes in candidates:
        poly = clip_box(box, halfplanes)
        area = 0.5 * abs(_shoelace(poly)[0])
        if area >= _MIN_AREA and area > best.area:
            best = GainRegion(cond_id, vertices=poly, area=area)
    return best


def candidates(shared, lines) -> list:
    """The half-plane sets [*shared, line] of _best_region's arguments, one
    per line."""
    return [[*shared, line] for line in lines]


def old_order(cond_id, shared, lines) -> list:
    """The same half-plane sets in the builder's former clip order: NS3's
    band edge after its tangent, NS1's and NS2's lower edge before the line
    and NS2's upper edge after it."""
    if cond_id == NS3:
        return [[line, *shared] for line in lines]
    return [[shared[0], line, *shared[1:]] for line in lines]
