"""Cube projections and the translate-averaged smoothing operators.

``project_cube`` computes the Dirichlet-form orthogonal projection onto
fields vanishing outside an axis-aligned cube: the projected field matches
the operator image of the input at every cube site and is zero elsewhere.
The averaging operator applies that projection over every torus translate of
a fixed cube and averages with weight ``1 / side_length^d`` (each site lies in
exactly that many translates); its complement removes the locally determined
part of a field.  All translate solves are batched dense solves against
per-translate restrictions of the operator, accumulated in a fixed order so
results do not depend on chunking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import (
    LatticeError,
    LatticeField,
    LatticeTorus,
    column_blocks,
    cube_offsets,
    cube_sites,
)
from .operators import EllipticOperator

#: Cap on cached batched local inverses (float64 entries, ~400 MB).
_CACHE_ENTRY_BUDGET = 5e7
#: Cap on one chunk of reassembled local matrices (bytes); a smoother that
#: would need more is refused when it is built, before any solve runs.
_CHUNK_BYTE_BUDGET = 1 << 30
#: Cap on the right-hand sides gathered for one column block (bytes); a block
#: always holds at least one column.
_GATHER_BYTE_BUDGET = 64 << 20
#: Translate chunk for assemble-and-solve when the cache would be too large.
_CHUNK = 2048


class MemoryBudgetError(MemoryError):
    """A smoother's local solves would exceed a fixed byte budget."""


@dataclass(frozen=True)
class Cube:
    """Axis-aligned cube given by its lexicographic anchor corner and side."""

    anchor: tuple[int, ...]
    side_length: int


def _all_anchor_indices(torus: LatticeTorus) -> np.ndarray:
    return np.arange(torus.sites, dtype=np.int64)


def _translate_site_indices(torus: LatticeTorus, side_length: int,
                            anchors: np.ndarray) -> np.ndarray:
    """(len(anchors), side_length^d) global site index per translate.

    Accumulated one axis at a time in place, so the peak is two (T, n) index
    arrays: at cube side 9 on a side-27 d = 3 torus each is 110 MB.
    """
    coords = torus.all_coords()[anchors]  # (T, d)
    offs = cube_offsets(torus.d, side_length)  # (n, d)
    lin = np.zeros((coords.shape[0], offs.shape[0]), dtype=np.int64)
    axis_pos = np.empty_like(lin)
    for j in range(torus.d):
        np.add(coords[:, j, None], offs[None, :, j], out=axis_pos)
        axis_pos %= torus.side
        lin *= torus.side
        lin += axis_pos
    return lin


def _local_matrices(op: EllipticOperator, side_length: int,
                    anchors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Restrictions of the operator to cube translates: (T, n, n) with n = l^d*m.

    Stencil entries, with F the coefficient-weighted gradient:
      row x, column x-e_j+e_k: +A(x-e_j)[aj, bk]
      row x, column x-e_j:     -A(x-e_j)[aj, bk] summed over k
      row x, column x+e_k:     -A(x)[aj, bk] summed over j
      row x, column x:         +A(x)[aj, bk] summed over j, k
    Only columns inside the same cube are kept (the field vanishes outside),
    and cube membership of an offset is a purely local test.
    """
    t = op.torus
    m = t.m
    offs = cube_offsets(t.d, side_length)
    nloc = offs.shape[0]
    offmap = {tuple(o): i for i, o in enumerate(offs)}
    idx = _translate_site_indices(t, side_length, anchors)
    T = idx.shape[0]
    M = np.zeros((T, nloc, m, nloc, m))
    Agrid = t.to_grid(op.coefficients.values.reshape(t.sites, -1))

    def gathered(shift: np.ndarray) -> np.ndarray:
        """Coefficient blocks at (site + shift) for each (translate, offset)."""
        rolled = np.roll(Agrid, shift=tuple(-int(s) for s in shift),
                         axis=tuple(range(t.d)))
        flat = t.to_flat(rolled).reshape(t.sites, m, t.d, m, t.d)
        return flat[idx]  # (T, nloc, m, d, m, d)

    # gathered blocks have axes (translate, offset, a, j, b, k)
    ej = np.eye(t.d, dtype=np.int64)
    A0 = gathered(np.zeros(t.d, dtype=np.int64))
    for p_i, p in enumerate(offs):
        q0 = offmap[tuple(p)]
        M[:, p_i, :, q0, :] += A0[:, p_i].sum(axis=(2, 4))
        for k in range(t.d):
            qk = tuple(p + ej[k])
            if qk in offmap:
                M[:, p_i, :, offmap[qk], :] -= A0[:, p_i, :, :, :, k].sum(axis=2)
    for j in range(t.d):
        Am = gathered(-ej[j])
        for p_i, p in enumerate(offs):
            qm = tuple(p - ej[j])
            if qm in offmap:
                M[:, p_i, :, offmap[qm], :] -= Am[:, p_i, :, j, :, :].sum(axis=3)
            for k in range(t.d):
                q = tuple(p - ej[j] + ej[k])
                if q in offmap:
                    M[:, p_i, :, offmap[q], :] += Am[:, p_i, :, j, :, k]
    n = nloc * m
    return M.reshape(T, n, n), idx


def _whole_torus_project_raw(flat: np.ndarray) -> np.ndarray:
    # Degenerate cube covering the torus: the Galerkin conditions pin the
    # field modulo constants only, resolved by the mean-zero representative.
    return flat - flat.mean(axis=0)


def _scatter_add(idx: np.ndarray, sol: np.ndarray, sites: int) -> np.ndarray:
    """Sum (b, T, nloc*m) local solutions into (sites, m, b) at ``idx``.

    ``np.bincount`` adds in the order of ``idx.ravel()``, as ``np.add.at``
    does, so the sums are the same bit for bit, at a fraction of the cost.
    """
    b, T, n = sol.shape
    nloc = idx.shape[1]
    m = n // nloc
    out = np.empty((sites, m, b))
    flat_idx = idx.ravel()
    for j in range(b):
        values = sol[j].reshape(T * nloc, m)
        for a in range(m):
            out[:, a, j] = np.bincount(flat_idx, np.ascontiguousarray(values[:, a]),
                                       minlength=sites)
    return out


class CubeProjector:
    """Dirichlet-form projection onto fields supported in one cube."""

    def __init__(self, op: EllipticOperator, cube: Cube):
        self.op = op
        self.cube = cube
        t = op.torus
        if not 1 <= cube.side_length <= t.side:
            raise LatticeError(f"cube side {cube.side_length} out of range")
        self.site_indices = cube_sites(t, cube.anchor, cube.side_length)
        if cube.side_length == t.side:
            self._solver = None
        else:
            anchor = np.array([t.index_of(cube.anchor)], dtype=np.int64)
            M, idx = _local_matrices(op, cube.side_length, anchor)
            self._idx = idx[0]
            self._solver = np.linalg.inv(M[0])

    def dirichlet_solve_raw(self, rhs: np.ndarray) -> np.ndarray:
        """Field supported in the cube whose operator image matches rhs there."""
        t = self.op.torus
        if self._solver is None:
            raise LatticeError("whole-torus cube has no Dirichlet problem")
        local = (self._solver @ rhs[self._idx].reshape(-1)).reshape(-1, t.m)
        out = np.zeros((t.sites, t.m))
        out[self._idx] = local
        return out

    def project_raw(self, flat: np.ndarray) -> np.ndarray:
        if self._solver is None:
            return _whole_torus_project_raw(flat)
        return self.dirichlet_solve_raw(self.op.apply_raw(flat))

    def project(self, phi: LatticeField) -> LatticeField:
        """The locally determined part of the field, zero outside the cube."""
        if phi.torus != self.op.torus:
            raise LatticeError("field torus does not match operator torus")
        return LatticeField(self.op.torus, self.project_raw(phi.values))

    def complement(self, phi: LatticeField) -> LatticeField:
        """Harmonic extension part: agrees with phi outside, A-harmonic inside."""
        return LatticeField(self.op.torus,
                            phi.values - self.project_raw(phi.values))


def project_cube(op: EllipticOperator, cube: Cube, phi: LatticeField) -> LatticeField:
    return CubeProjector(op, cube).project(phi)


class AveragingOperator:
    """Average of cube projections over all torus translates of one cube side.

    ``smooth`` is the averaged projection, ``fluctuation`` its complement,
    and ``fluctuation_dual`` the conjugation by the elliptic operator (one
    Green solve, then the complement, then the operator).  The transposed
    variants drive the kernel-slice extraction and share the same local
    solves.

    In the energy form the average is positive but on a lattice it is not a
    contraction: cubes that only overlap the one-site stencil ring of a bump
    still collect energy, pushing the top of its spectrum above one (about
    1.22 at cube side 3).  The spectrum stays inside [0, 2), which is what
    makes every complement a strict energy contraction and every level of
    the decomposition positive.

    Local factorizations are cached on first application; apply the operator
    once before sharing it across threads.  Applications themselves are pure.
    """

    def __init__(self, op: EllipticOperator, side_length: int,
                 chunk: int = _CHUNK):
        t = op.torus
        if not 1 <= side_length <= t.side:
            raise LatticeError(f"cube side {side_length} out of range")
        self.op = op
        self.side_length = side_length
        self.chunk = chunk
        self.whole_torus = side_length == t.side
        self._weight = 1.0 / side_length ** t.d
        self._inv = None
        self._idx = None
        if not self.whole_torus:
            nloc = side_length ** t.d * t.m
            self._cacheable = t.sites * nloc * nloc <= _CACHE_ENTRY_BUDGET
            self._constant_coeff = op.coefficients.is_constant()
            if not (self._cacheable or self._constant_coeff):
                translates = min(chunk, t.sites)
                chunk_bytes = translates * nloc * nloc * 8
                if chunk_bytes > _CHUNK_BYTE_BUDGET:
                    raise MemoryBudgetError(
                        f"cube side {side_length}: one chunk of {translates} "
                        f"local {nloc}x{nloc} matrices needs "
                        f"{chunk_bytes / 2**30:.2f} GiB, above the "
                        f"{_CHUNK_BYTE_BUDGET / 2**30:.2f} GiB budget")

    def _ensure_cache(self) -> None:
        if self._inv is not None or self.whole_torus:
            return
        t = self.op.torus
        anchors = _all_anchor_indices(t)
        if self._constant_coeff:
            M, idx = _local_matrices(self.op, self.side_length, anchors[:1])
            self._inv = np.linalg.inv(M[0])
            self._idx = _translate_site_indices(t, self.side_length, anchors)
        elif self._cacheable:
            M, idx = _local_matrices(self.op, self.side_length, anchors)
            self._inv = np.linalg.inv(M)
            self._idx = idx
        else:
            self._idx = _translate_site_indices(t, self.side_length, anchors)

    def _solve_all_translates(self, flat: np.ndarray) -> np.ndarray:
        """Gather `flat` on every translate, solve locally, scatter-average.

        The columns of a (sites, m, B) input go through in blocks whose
        gathered right-hand sides fit ``_GATHER_BYTE_BUDGET``.
        """
        t = self.op.torus
        self._ensure_cache()
        cols = flat if flat.ndim == 3 else flat[..., None]
        idx = self._idx
        T, nloc = idx.shape
        n = nloc * t.m
        out = np.empty(cols.shape)
        for block in column_blocks(cols.shape[2], T * n * 8, _GATHER_BYTE_BUDGET):
            rhs = np.moveaxis(cols[..., block], 2, 0)[:, idx].reshape(-1, T, n)
            out[..., block] = _scatter_add(idx, self._local_solves(rhs), t.sites)
        out *= self._weight
        return out if flat.ndim == 3 else out[..., 0]

    def _local_solves(self, rhs: np.ndarray) -> np.ndarray:
        """Solve every translate's local system for a (b, T, n) block of columns."""
        if self._constant_coeff:
            return (rhs.reshape(-1, rhs.shape[2]) @ self._inv.T).reshape(rhs.shape)
        if self._inv is not None:
            return np.matmul(self._inv, rhs.transpose(1, 2, 0)).transpose(2, 0, 1)
        sol = np.empty_like(rhs)
        T = rhs.shape[1]
        for start in range(0, T, self.chunk):
            sl = slice(start, min(start + self.chunk, T))
            M, _ = _local_matrices(self.op, self.side_length,
                                   np.arange(sl.start, sl.stop, dtype=np.int64))
            sol[:, sl] = np.linalg.solve(
                M, rhs[:, sl].transpose(1, 2, 0)).transpose(2, 0, 1)
        return sol

    # -- raw operations ------------------------------------------------------

    def local_solve_average_raw(self, flat: np.ndarray) -> np.ndarray:
        """Averaged local solves of the raw field (no leading operator apply)."""
        if self.whole_torus:
            raise LatticeError("degenerate whole-torus cube has no local solves")
        return self._solve_all_translates(flat)

    def smooth_raw(self, flat: np.ndarray) -> np.ndarray:
        """Averaged projection of a (sites, m) field or of each column of (sites, m, B)."""
        if self.whole_torus:
            return _whole_torus_project_raw(flat)
        return self._solve_all_translates(self.op.apply_raw(flat))

    def fluctuation_raw(self, flat: np.ndarray) -> np.ndarray:
        return flat - self.smooth_raw(flat)

    def smooth_transpose_raw(self, flat: np.ndarray) -> np.ndarray:
        """l2 transpose of ``smooth``: local solves first, operator last."""
        if self.whole_torus:
            return _whole_torus_project_raw(flat)
        return self.op.apply_raw(self._solve_all_translates(flat))

    def fluctuation_transpose_raw(self, flat: np.ndarray) -> np.ndarray:
        return flat - self.smooth_transpose_raw(flat)

    # -- field-level API -----------------------------------------------------

    def _check(self, phi: LatticeField) -> None:
        if phi.torus != self.op.torus:
            raise LatticeError("field torus does not match operator torus")

    def smooth(self, phi: LatticeField) -> LatticeField:
        """Translate-averaged cube projection of the field."""
        self._check(phi)
        return LatticeField(self.op.torus, self.smooth_raw(phi.values))

    def fluctuation(self, phi: LatticeField) -> LatticeField:
        """The part of the field not determined by local cube projections."""
        self._check(phi)
        return LatticeField(self.op.torus, self.fluctuation_raw(phi.values))

    def fluctuation_dual(self, phi: LatticeField,
                         tol: float | None = None) -> LatticeField:
        """Conjugated complement: solve, take the fluctuation, re-apply."""
        self._check(phi)
        from .operators import DEFAULT_TOL
        u, _ = self.op.solve_green_raw(phi.values, tol if tol else DEFAULT_TOL)
        return LatticeField(
            self.op.torus, self.op.apply_raw(self.fluctuation_raw(u)), True
        )
