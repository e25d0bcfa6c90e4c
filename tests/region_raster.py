"""Grid rasterization of explicit gain regions, for comparison with the grid oracle."""

import numpy as np


def _rasterize_polygon(region, ks, bs):
    """Vectorized convex-polygon membership over the gain grid."""
    out = np.ones((ks.size, bs.size), dtype=bool)
    if region.empty:
        return np.zeros((ks.size, bs.size), dtype=bool)
    v = np.asarray(region.vertices)
    if len(v) == 1:
        out = np.zeros((ks.size, bs.size), dtype=bool)
        i = np.argmin(np.abs(ks - v[0, 0]))
        j = np.argmin(np.abs(bs - v[0, 1]))
        if abs(ks[i] - v[0, 0]) < 1e-12 and abs(bs[j] - v[0, 1]) < 1e-12:
            out[i, j] = True
        return out
    # orient CCW
    x, y = v[:, 0], v[:, 1]
    if np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)) < 0:
        v = v[::-1]
    K, B = np.meshgrid(ks, bs, indexing="ij")
    for i in range(len(v)):
        x0, y0 = v[i]
        x1, y1 = v[(i + 1) % len(v)]
        cross = (x1 - x0) * (B - y0) - (y1 - y0) * (K - x0)
        out &= cross >= -1e-12
    return out


def _boundary_mask(bm):
    pad = np.pad(bm, 1, mode="edge")
    m = np.zeros_like(bm)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            m |= pad[1 + di:pad.shape[0] - 1 + di,
                     1 + dj:pad.shape[1] - 1 + dj] != bm
    return m
