"""The region builder's loop without its screen: every candidate clipped from
the box.

`best_region_every_clip(cond_id, box, candidates)` clips the gain box by
each candidate's half-planes in order, with its own copy of the
Sutherland-Hodgman clip, and keeps the largest clip: the first of equal
areas, and an empty region if none reaches `_MIN_AREA`. It is the oracle
that `scheduler._best_region`, which clips a shared first half-plane once
and screens the candidates before clipping them in full, must equal bit for
bit.
"""

from uamsim.scheduler import _MIN_AREA, GainRegion, _shoelace


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


def best_region_every_clip(cond_id, box, candidates) -> GainRegion:
    """The largest clip of the box over the candidate half-plane sets; the
    first of equal areas, and empty if none reaches _MIN_AREA."""
    best = GainRegion(cond_id)
    for halfplanes in candidates:
        poly = box.corners()
        for hp in halfplanes:
            poly = clip_halfplane(poly, *hp)
        area = 0.5 * abs(_shoelace(poly)[0])
        if area >= _MIN_AREA and area > best.area:
            best = GainRegion(cond_id, vertices=poly, area=area)
    return best


def candidates(first, lines, last) -> list:
    """The half-plane sets [first, line, last] of _best_region's arguments,
    one per line, with a None first or last left out."""
    return [[hp for hp in (first, line, last) if hp is not None]
            for line in lines]
