"""C1 piecewise-cubic scattered-data interpolation on a triangulation.

Each triangle is split at its barycenter into three cubic Bezier patches.
Corner ordinates come from the data values, edge-adjacent ordinates from
estimated vertex gradients, the cross-edge ordinate from requiring the
normal derivative to vary linearly along each outer edge, and the interior
ordinates from the C1 conditions across the internal edges (which, for the
barycenter split, reduce to simple averages).

Vertex gradients are a weighted least-squares affine fit over the Delaunay
neighbors (weights 1/distance^2), which is exact for affine data; with a
linear gradient estimator the whole interpolant is linear in the values.
The optional `clamp_gradients` mode scales gradients down and clips patch
ordinates into the local data range, trading affine exactness and C1
continuity for a guaranteed overshoot-free map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ProjectedLayout

# Bezier exponent triples (a over Vi, b over Vj, c over barycenter) and the
# trinomial coefficients, in the ordinate order used throughout:
# [f_i, f_j, center, c_ij, c_ji, s_i, s_j, r_i, r_j, b111]
_EXPONENTS = np.array(
    [
        (3, 0, 0),
        (0, 3, 0),
        (0, 0, 3),
        (2, 1, 0),
        (1, 2, 0),
        (2, 0, 1),
        (0, 2, 1),
        (1, 0, 2),
        (0, 1, 2),
        (1, 1, 1),
    ],
    dtype=int,
)
_TRINOMIAL = np.array([1, 1, 1, 3, 3, 3, 3, 3, 3, 6], dtype=float)
_PATCH_EDGES = ((0, 1), (1, 2), (2, 0))


def _neighbors(layout: ProjectedLayout) -> list[list[int]]:
    """Sorted triangulation neighbors of each point (cached on the layout)."""
    key = ("neighbors",)
    if key not in layout._caches:
        nbrs: list[set[int]] = [set() for _ in layout.points]
        for a, b, c in layout.triangles:
            nbrs[a].update((b, c))
            nbrs[b].update((a, c))
            nbrs[c].update((a, b))
        layout._caches[key] = [sorted(js) for js in nbrs]
    return layout._caches[key]


def gradient_operator(layout: ProjectedLayout) -> np.ndarray:
    """(n, 2, n) tensor G with gradients[i] = G[i] @ values.

    Row i solves the 1/d^2-weighted least-squares fit of
    values[j] - values[i] ~= g . (p_j - p_i) over i's neighbors.
    """
    pts = layout.points
    op = np.zeros((len(pts), 2, len(pts)))
    for i, js in enumerate(_neighbors(layout)):
        d = pts[js] - pts[i]
        w = 1.0 / np.sum(d * d, axis=1)
        a_mat = (w[:, None] * d).T @ d
        # rows of the solve map neighbor value differences to the gradient
        coef = np.linalg.solve(a_mat, (w[:, None] * d).T)  # (2, k)
        op[i, :, js] = coef.T
        op[i, :, i] -= coef.sum(axis=1)
    return op


@dataclass
class _Geometry:
    """Per-triangle quantities that do not depend on the data values."""

    inv_t: np.ndarray  # (m, 2, 2) barycentric transforms
    v3: np.ndarray  # (m, 3, 2) triangle vertices
    centers: np.ndarray  # (m, 2)
    normal_coef: np.ndarray  # (m, 3, 3) (a_i, a_j, a_0) per outer edge


def _build_geometry(layout: ProjectedLayout) -> _Geometry:
    pts = layout.points
    tris = layout.triangles
    v3 = pts[tris]  # (m, 3, 2)
    centers = v3.mean(axis=1)
    t_mat = np.stack([v3[:, 0] - v3[:, 2], v3[:, 1] - v3[:, 2]], axis=-1)  # (m,2,2)
    inv_t = np.linalg.inv(t_mat)
    m = len(tris)
    normal_coef = np.zeros((m, 3, 3))
    for p_idx, (li, lj) in enumerate(_PATCH_EDGES):
        vi, vj = v3[:, li], v3[:, lj]
        edge = vj - vi
        # outward normal of the outer edge (away from the barycenter)
        nrm = np.stack([edge[:, 1], -edge[:, 0]], axis=1)
        inward = centers - vi
        flip = np.sum(nrm * inward, axis=1) > 0
        nrm[flip] *= -1.0
        # direction barycentrics: n = a_i (Vi - V0) + a_j (Vj - V0), a_0 = -a_i-a_j
        basis = np.stack([vi - centers, vj - centers], axis=-1)  # (m,2,2)
        ab = np.linalg.solve(basis, nrm[..., None])[..., 0]  # (m,2)
        normal_coef[:, p_idx] = np.column_stack([ab[:, 0], ab[:, 1], -ab[:, 0] - ab[:, 1]])
    return _Geometry(inv_t=inv_t, v3=v3, centers=centers, normal_coef=normal_coef)


def _patch_ordinates(
    layout: ProjectedLayout, geom: _Geometry, values: np.ndarray, gradients: np.ndarray, clamp: bool
) -> np.ndarray:
    """(m, 3, 10) Bezier ordinates for every (triangle, outer patch)."""
    tris = layout.triangles
    f = values[tris]  # (m, 3)
    g = gradients[tris]  # (m, 3, 2)
    v3, centers = geom.v3, geom.centers

    # s_k = f_k + g_k . (V0 - Vk) / 3
    s = f + np.einsum("mkd,mkd->mk", g, centers[:, None, :] - v3) / 3.0
    # c_edge[k, l] = f_k + g_k . (Vl - Vk) / 3
    c_edge = f[:, :, None] + np.einsum(
        "mkd,mkld->mkl", g, v3[:, None, :, :] - v3[:, :, None, :]
    ) / 3.0

    # per outer patch p: its edge (Vi, Vj) = _PATCH_EDGES[p], columns indexed by p
    li, lj = np.array(_PATCH_EDGES).T
    a_i, a_j, a_0 = np.moveaxis(geom.normal_coef, 2, 0)
    fi, fj, si, sj = f[:, li], f[:, lj], s[:, li], s[:, lj]
    cij, cji = c_edge[:, li, lj], c_edge[:, lj, li]
    b111 = (
        0.5 * (a_i * (fi + cji) + a_j * (cij + fj) + a_0 * (si + sj))
        - a_i * cij
        - a_j * cji
    ) / a_0

    # internal-edge ordinates and the shared center value
    r = (b111[:, [0, 0, 1]] + b111[:, [2, 1, 2]] + s) / 3.0
    center = np.broadcast_to(r.mean(axis=1)[:, None], fi.shape)
    ords = np.stack([fi, fj, center, cij, cji, si, sj, r[:, li], r[:, lj], b111], axis=2)

    if clamp:
        lo = f.min(axis=1)[:, None, None]
        hi = f.max(axis=1)[:, None, None]
        ords = np.clip(ords, lo, hi)
    return ords


def _clamped_gradients(
    layout: ProjectedLayout, values: np.ndarray, gradients: np.ndarray
) -> np.ndarray:
    """Scale each vertex gradient so edge/center ordinates stay inside the
    local neighbor value range."""
    pts = layout.points
    out = gradients.copy()
    for i, js in enumerate(_neighbors(layout)):
        local = np.append(values[js], values[i])
        up = local.max() - values[i]
        down = values[i] - local.min()
        d = pts[js] - pts[i]
        dev = np.max(np.abs(d @ gradients[i])) / 3.0
        if dev <= 0:
            continue
        out[i] *= min(1.0, min(up, down) / dev)
    return out


class CloughTocher:
    """Evaluator bound to one layout; data values are supplied per call."""

    def __init__(self, layout: ProjectedLayout, clamp_gradients: bool = False):
        self.layout = layout
        self.clamp = clamp_gradients
        self.geom = _build_geometry(layout)
        self.grad_op = gradient_operator(layout)

    def _locate(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Containing triangle per query point (-1 outside) and barycentrics."""
        diff = query[:, None, :] - self.geom.v3[None, :, 2, :]  # (q, m, 2)
        lam12 = np.einsum("mde,qme->qmd", self.geom.inv_t, diff)
        lam = np.concatenate([lam12, 1.0 - lam12.sum(axis=2, keepdims=True)], axis=2)  # (q, m, 3)
        ok = np.all(lam >= -1e-12, axis=2)
        tri = np.where(ok.any(axis=1), ok.argmax(axis=1), -1)
        q_idx = np.arange(len(query))
        bary = lam[q_idx, np.maximum(tri, 0)]
        return tri, bary

    def _check(self, values: np.ndarray) -> np.ndarray:
        """Values as float, one per layout point on the last axis, all finite."""
        values = np.asarray(values, dtype=float)
        if values.shape[-1:] != (len(self.layout.points),):
            raise ValueError("one value per layout point required")
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite interpolation value")
        return values

    def _ordinates(self, values: np.ndarray) -> np.ndarray:
        values = self._check(values)
        grads = np.einsum("idn,n->id", self.grad_op, values)
        if self.clamp:
            grads = _clamped_gradients(self.layout, values, grads)
        return _patch_ordinates(self.layout, self.geom, values, grads, self.clamp)

    @staticmethod
    def _basis(bary: np.ndarray, patch: np.ndarray) -> np.ndarray:
        """Bernstein basis row per query from macro barycentrics and patch id."""
        q = len(bary)
        idx = np.arange(q)
        li = np.array([e[0] for e in _PATCH_EDGES])[patch]
        lj = np.array([e[1] for e in _PATCH_EDGES])[patch]
        lk = 3 - li - lj
        lam_k = bary[idx, lk]
        mu = np.stack([bary[idx, li] - lam_k, bary[idx, lj] - lam_k, 3.0 * lam_k], axis=1)
        mu = np.clip(mu, 0.0, None)
        powers = mu[:, None, :] ** _EXPONENTS[None, :, :]
        return _TRINOMIAL[None, :] * powers.prod(axis=2)  # (q, 10)

    def _tables(self, query: np.ndarray) -> dict:
        """Which query points lie inside the hull, and for those the
        containing triangle, sub-patch and Bernstein basis row."""
        tri, bary = self._locate(query)
        inside = tri >= 0
        # the containing sub-patch is opposite the smallest barycentric
        patch = (np.argmin(bary[inside], axis=1) + 1) % 3
        basis = self._basis(bary[inside], patch)
        return {"inside": inside, "tri": tri[inside], "patch": patch, "basis": basis}

    def evaluate(self, values: np.ndarray, query: np.ndarray, fill: float = 0.0) -> np.ndarray:
        query = np.atleast_2d(np.asarray(query, dtype=float))
        table = self._tables(query)
        out = np.full(len(query), fill, dtype=float)
        if table["inside"].any():
            out[table["inside"]] = _cell_values(self._ordinates(values), table)
        return out

    def grid_cache(self, grid_n: int) -> dict:
        """Precomputed cell -> (triangle, patch, basis) tables for one grid
        size; purely geometric, shared by clamped and unclamped evaluators."""
        key = ("grid", grid_n)
        if key not in self.layout._caches:
            umin, umax, vmin, vmax = self.layout.extent
            us = umin + (np.arange(grid_n) + 0.5) * (umax - umin) / grid_n
            vs = vmin + (np.arange(grid_n) + 0.5) * (vmax - vmin) / grid_n
            uu, vv = np.meshgrid(us, vs, indexing="xy")  # rows vary v, cols u
            self.layout._caches[key] = self._tables(np.column_stack([uu.ravel(), vv.ravel()]))
        return self.layout._caches[key]

    def operator(self, grid_n: int) -> np.ndarray:
        """(inside cells, n) matrix M of the unclamped map, which is linear
        in the values: the inside cells are M @ values. Column j is the
        Bezier evaluation of unit vector j; cached on the layout."""
        key = ("operator", grid_n)
        if key not in self.layout._caches:
            table = self.grid_cache(grid_n)
            unit = np.eye(len(self.layout.points))
            self.layout._caches[key] = np.column_stack([
                _cell_values(_patch_ordinates(self.layout, self.geom, e, g, False), table)
                for e, g in zip(unit, self.grad_op.transpose(2, 0, 1))  # g = G @ e
            ])
        return self.layout._caches[key]

    def grid(self, values: np.ndarray, grid_n: int, fill: float = 0.0) -> np.ndarray:
        """(..., grid_n, grid_n) maps of (..., n) values over the layout
        extent; row index follows v, column index follows u; cells outside
        the hull hold `fill`. The clamped mode is not linear in the values
        and evaluates one map at a time."""
        values = self._check(values)
        batch = values.shape[:-1]
        cache = self.grid_cache(grid_n)
        out = np.full(batch + (grid_n * grid_n,), fill, dtype=float)
        if self.clamp:
            for idx in np.ndindex(batch):
                out[idx][cache["inside"]] = _cell_values(self._ordinates(values[idx]), cache)
        else:
            out[..., cache["inside"]] = values @ self.operator(grid_n).T
        return out.reshape(batch + (grid_n, grid_n))


def _cell_values(ords: np.ndarray, table: dict) -> np.ndarray:
    """Interpolated values at the inside points of a table, from the
    (m, 3, 10) patch ordinates."""
    return np.sum(ords[table["tri"], table["patch"]] * table["basis"], axis=1)


def interpolator(layout: ProjectedLayout, clamp_gradients: bool = False) -> CloughTocher:
    """Shared per-layout evaluator (cached on the layout)."""
    key = ("ct", clamp_gradients)
    if key not in layout._caches:
        layout._caches[key] = CloughTocher(layout, clamp_gradients)
    return layout._caches[key]
