"""Cube projections and the translate-averaged smoothing operators.

``project_cube`` computes the Dirichlet-form orthogonal projection onto
fields vanishing outside an axis-aligned cube: the projected field matches
the operator image of the input at every cube site and is zero elsewhere.
The averaging operator applies that projection over every torus translate of
a fixed cube and averages with weight ``1 / side_length^d`` (each site lies in
exactly that many translates); its complement removes the locally determined
part of a field.

Translates whose anchors agree modulo the coefficient field's exact
per-axis periods have the same local matrix.  So the average commutes with
shifts by the periods P: writing a site as x = P*y + rho, with rho in the
period cell of C classes and y on the coarse grid, it is a block convolution
over y, diagonal per coarse frequency (its Bloch symbol).  When the cube is
wider than one site, C is at most its site count and the symbol fits a byte
budget, the smoother is applied through it: an FFT over y, one (C*m, C*m) product per frequency and
the inverse FFT.  Otherwise one inverse per class is cached or, above the
budget, reassembled on every application, and applied as below.

Every translate is visited through windows (``lattice.cube_windows``) of a
grid padded periodically by ``side_length - 1`` sites per axis with
``np.pad(..., mode="wrap")``: window o holds, at each anchor, the value at
anchor + o.  The local matrices read their site indices from windows of the
padded site-index grid; the right-hand sides are gathered from windows of
the padded field, solved by one batched product over the classes and added
back into the same windows, in a fixed order, so results do not depend on
chunking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import (
    LatticeError,
    LatticeField,
    column_blocks,
    cube_offsets,
    cube_sites,
    cube_windows,
)
from .coefficients import _coefficient_periods, _period_cell
from .operators import EllipticOperator

#: Cap on the Bloch symbol, or else on the cached local inverses, of one
#: smoother (bytes); above it the inverses are reassembled on every application.
_CACHE_BYTE_BUDGET = 400_000_000
#: Cap on one chunk of reassembled local matrices (bytes); a smoother that
#: would need more is refused when it is built, before any solve runs.
_CHUNK_BYTE_BUDGET = 1 << 30
#: Cap on the right-hand sides gathered for one column block, and on the
#: class inverses accumulated into a symbol at once (bytes); a block always
#: holds at least one column or class.
_GATHER_BYTE_BUDGET = 64 << 20
#: Classes assembled and inverted together.
_CHUNK = 2048


class MemoryBudgetError(MemoryError):
    """A smoother's local solves would exceed a fixed byte budget."""


@dataclass(frozen=True)
class Cube:
    """Axis-aligned cube given by its lexicographic anchor corner and side."""

    anchor: tuple[int, ...]
    side_length: int


def _local_matrices(op: EllipticOperator, side_length: int,
                    anchors: np.ndarray) -> np.ndarray:
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
    d, m = t.d, t.m
    offs = cube_offsets(d, side_length)
    nloc = offs.shape[0]
    # (T, nloc) site index of every offset of every translate
    ext = np.pad(np.arange(t.sites, dtype=np.int64).reshape(t.shape),
                 (0, side_length - 1), mode="wrap")
    at = np.unravel_index(anchors, t.shape)
    idx = np.stack([ext[w][at] for w in cube_windows(d, side_length, t.side)],
                   axis=1)
    T = idx.shape[0]
    Agrid = t.to_grid(op.coefficients.values.reshape(t.sites, -1))

    def gathered(shift: np.ndarray) -> np.ndarray:
        """Coefficient blocks at (site + shift) for each (translate, offset)."""
        rolled = np.roll(Agrid, shift=tuple(-int(s) for s in shift),
                         axis=tuple(range(d)))
        flat = t.to_flat(rolled).reshape(t.sites, m, d, m, d)
        return flat[idx]  # (T, nloc, m, d, m, d)

    def pairs(shift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Offsets p, and their q = p + shift, for which q is in the cube."""
        q = offs + shift
        inside = ((q >= 0) & (q < side_length)).all(axis=1)
        return np.flatnonzero(inside), np.ravel_multi_index(q[inside].T, (side_length,) * d)

    # W has axes (translate, row offset, column offset, a, b); gathered blocks
    # have axes (translate, offset, a, j, b, k)
    W = np.zeros((T, nloc, nloc, m, m))
    ej = np.eye(d, dtype=np.int64)
    A0 = gathered(np.zeros(d, dtype=np.int64))
    diag = np.arange(nloc)
    W[:, diag, diag] += A0.sum(axis=(3, 5))
    for k in range(d):
        p, q = pairs(ej[k])
        W[:, p, q] -= A0[..., k][:, p].sum(axis=3)
    for j in range(d):
        Am = gathered(-ej[j])
        p, q = pairs(-ej[j])
        W[:, p, q] -= Am[:, :, :, j][:, p].sum(axis=4)
        for k in range(d):
            p, q = pairs(ej[k] - ej[j])
            W[:, p, q] += Am[:, :, :, j, :, k][:, p]
    n = nloc * m
    return W.transpose(0, 1, 3, 2, 4).reshape(T, n, n)


def _whole_torus_project_raw(flat: np.ndarray) -> np.ndarray:
    # Degenerate cube covering the torus: the Galerkin conditions pin the
    # field modulo constants only, resolved by the mean-zero representative.
    return flat - flat.mean(axis=0)


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
            M = _local_matrices(op, cube.side_length, anchor)
            self._solver = np.linalg.inv(M[0])

    def dirichlet_solve_raw(self, rhs: np.ndarray) -> np.ndarray:
        """Field supported in the cube whose operator image matches rhs there."""
        t = self.op.torus
        if self._solver is None:
            raise LatticeError("whole-torus cube has no Dirichlet problem")
        local = (self._solver @ rhs[self.site_indices].reshape(-1)).reshape(-1, t.m)
        out = np.zeros((t.sites, t.m))
        out[self.site_indices] = local
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

    ``smooth`` is the averaged projection W A, with W
    (``solve_all_translates``) the averaged local solves, and
    ``fluctuation`` its complement.  The transposed variants, A W and
    I - A W, share the same local solves; on mean-zero fields I - A W is
    also the complement conjugated by the operator, A (I - W A) G.

    In the energy form the average is positive but on a lattice it is not a
    contraction: cubes that only overlap the one-site stencil ring of a bump
    still collect energy, pushing the top of its spectrum above one (about
    1.22 at cube side 3).  Level k is positive when the spectrum of its
    ``smooth`` lies in [0, 2], and level 1 only then.  Cube side 1 is block
    Jacobi, and its top eigenvalue exceeds 2 for anisotropic coefficients
    (up to 2.67, ROADMAP item 1), which leaves level 1 indefinite; at cube
    side 3 it stayed at or below 1.39 in every case tried.

    ``classes`` counts the coefficient-period classes of translates (0 for
    the whole-torus cube, which has no local solves).  ``symbol`` says
    whether the smoother is applied through its Bloch symbol: the cube is
    wider than one site (a cube-1 gather is one pointwise product), there
    are at most as many classes as cube sites and the symbol fits
    ``_CACHE_BYTE_BUDGET``.  Otherwise the class inverses are gathered
    against, and ``cached`` says whether they fit the same budget.  The
    symbol or the cached inverses are built on first application; apply the
    operator once before sharing it across threads.  Applications
    themselves are pure.
    """

    def __init__(self, op: EllipticOperator, side_length: int):
        t = op.torus
        if not 1 <= side_length <= t.side:
            raise LatticeError(f"cube side {side_length} out of range")
        self.op = op
        self.side_length = side_length
        self.whole_torus = side_length == t.side
        self._weight = 1.0 / side_length ** t.d
        self._inv = self._symbol = None
        self.classes, self.cached, self.symbol = 0, False, False
        if self.whole_torus:
            return
        self.periods = _coefficient_periods(op.coefficients)
        self.classes = int(np.prod(self.periods))
        self._representatives = _period_cell(t, self.periods)
        self._members = tuple(t.side // p for p in self.periods)
        self._windows = cube_windows(t.d, side_length, t.side)
        n = side_length ** t.d * t.m
        self.cached = self.classes * n * n * 8 <= _CACHE_BYTE_BUDGET
        self.symbol = (side_length > 1 and self.classes <= side_length ** t.d and
                       16 * t.sites * self.classes * t.m ** 2 <= _CACHE_BYTE_BUDGET)
        if not (self.cached or self.symbol):
            count = min(_CHUNK, self.classes)
            chunk_bytes = count * n * n * 8
            if chunk_bytes > _CHUNK_BYTE_BUDGET:
                raise MemoryBudgetError(
                    f"cube side {side_length}: one chunk of {count} "
                    f"local {n}x{n} matrices needs "
                    f"{chunk_bytes / 2**30:.2f} GiB, above the "
                    f"{_CHUNK_BYTE_BUDGET / 2**30:.2f} GiB budget")

    def _inverses(self, run: slice) -> np.ndarray:
        """Local inverses of a run of classes: cached, or assembled afresh."""
        if self._inv is not None:
            return self._inv[run]
        return np.linalg.inv(
            _local_matrices(self.op, self.side_length, self._representatives[run]))

    def _bloch_symbol(self) -> np.ndarray:
        """Per coarse frequency, the (C*m, C*m) block of the averaged local solves.

        Entry ((p, a), (q, b)) of class r's local inverse couples input
        residue (r + q) mod P to output residue (r + p) mod P at coarse shift
        (r + p) // P - (r + q) // P.  Unwrapped, that shift is linear in p
        and q, so one ``bincount`` per run of classes sums the taps of every
        shift, after which the run's inverses are dropped.  The taps are
        then wrapped onto the coarse torus and transformed by ``rfftn``.
        """
        t = self.op.torus
        d, m, size = t.d, t.m, self.classes * t.m
        offs = cube_offsets(d, self.side_length)
        nloc = len(offs)
        periods = np.array(self.periods)
        reach = (periods + self.side_length - 2) // periods + 1  # (r + p) // P < reach
        span = tuple(2 * reach - 1)  # unwrapped shifts, moved up by reach - 1
        centre = np.ravel_multi_index(tuple(reach - 1), span)
        cell = periods[:, None, None]
        unwrapped = np.zeros(int(np.prod(span)) * size * size)
        for run in column_blocks(self.classes, (nloc * m) ** 2 * 8, _GATHER_BYTE_BUDGET):
            inv = np.linalg.inv(_local_matrices(self.op, self.side_length,
                                                self._representatives[run]))
            # (d, R, nloc): r + p per axis, class and offset
            at = (np.array(np.unravel_index(np.arange(run.start, run.stop), self.periods))
                  [:, :, None] + offs.T[:, None])
            residue = (np.ravel_multi_index(tuple(at % cell), self.periods)[..., None] * m
                       + np.arange(m))
            coarse = np.ravel_multi_index(tuple(at // cell), span)[..., None]
            row = ((coarse + centre) * size + residue) * size
            column = residue - coarse * size * size
            index = row[:, :, :, None, None] + column[:, None, None]
            unwrapped += np.bincount(index.ravel(), weights=inv.ravel(),
                                     minlength=unwrapped.size)
        taps = np.zeros(self._members + (size, size))
        wrap = [(np.arange(w) - r + 1) % n for w, r, n in zip(span, reach, self._members)]
        np.add.at(taps, np.ix_(*wrap), unwrapped.reshape(span + (size, size)))
        return np.fft.rfftn(taps * self._weight, axes=tuple(range(d)))

    def _convolve(self, cols: np.ndarray) -> np.ndarray:
        """The averaged local solves of each column of (sites, m, B), by the symbol.

        Sites farther than ``side_length - 1`` along some axis from every
        nonzero of a column get exactly zero, as in the gather; the FFT
        alone would leave roundoff there.
        """
        t = self.op.torus
        d, B, l = t.d, cols.shape[2], self.side_length
        near = t.to_grid((cols != 0).any(axis=1))
        if self._symbol is None:
            self._symbol = self._bloch_symbol()
        split = [x for pair in zip(self._members, self.periods) for x in pair]
        coarse = tuple(range(d))
        grid = cols.reshape(split + [t.m, B]).transpose(
            *range(0, 2 * d, 2), *range(1, 2 * d, 2), 2 * d, 2 * d + 1)
        spec = np.fft.rfftn(grid.reshape(self._members + (-1, B)), axes=coarse)
        out = np.fft.irfftn(self._symbol @ spec, s=self._members, axes=coarse)
        interleave = [x for j in coarse for x in (j, d + j)] + [2 * d, 2 * d + 1]
        out = out.reshape(self._members + self.periods + (t.m, B)).transpose(
            interleave).reshape(cols.shape)
        if near.all():
            return out
        for j in range(d):
            near = np.logical_or.reduce([np.roll(near, s, axis=j) for s in range(1 - l, l)])
        return np.where(t.to_flat(near)[:, None], out, 0.0)

    def solve_all_translates(self, flat: np.ndarray) -> np.ndarray:
        """W: gather `flat` on every translate, solve locally, scatter-average.

        W is symmetric, and maps a field supported in a set into its
        (side_length - 1)-neighbourhood; the whole-torus cube has no W.
        A symbol smoother convolves instead (``_convolve``).
        Offset p of every translate reads window p of the field padded
        periodically by ``side_length - 1`` sites per axis, and its local
        solution is added into the same window of a zero grid whose padding
        is then folded back onto the torus.
        Anchor axis j splits into (member, class) axes of lengths
        (side / period_j, period_j), so the right-hand sides of one class
        form one matrix.  Columns go through in blocks whose gathered
        right-hand sides fit ``_GATHER_BYTE_BUDGET``.
        """
        t = self.op.torus
        d, m, side, l = t.d, t.m, t.side, self.side_length
        cols = flat if flat.ndim == 3 else flat[..., None]
        if self.symbol:
            out = self._convolve(cols)
            return out if flat.ndim == 3 else out[..., 0]
        nloc = len(self._windows)
        runs = column_blocks(self.classes, 1, _CHUNK)
        if self.cached and self._inv is None:
            inv = np.empty((self.classes, nloc * m, nloc * m))
            for run in runs:
                inv[run] = self._inverses(run)
            self._inv = inv
        split = [x for pair in zip(self._members, self.periods) for x in pair]
        to_classes = [*range(1, 2 * d, 2), 2 * d, *range(0, 2 * d, 2), 2 * d + 1]
        lead = (slice(None),) * d

        def window(ext: np.ndarray, w: tuple) -> np.ndarray:
            # splitting axes never copies, so the scatter can add into the view
            b = ext.shape[-1]
            return ext[w].reshape(split + [m, b]).transpose(to_classes)

        out = np.empty(cols.shape)
        for block in column_blocks(cols.shape[2], t.sites * nloc * m * 8,
                                   _GATHER_BYTE_BUDGET):
            ext = np.pad(t.to_grid(cols[..., block]),
                         [(0, l - 1)] * d + [(0, 0)] * 2, mode="wrap")
            shape = self.periods + (nloc, m) + self._members + (ext.shape[-1],)
            rhs = np.empty(shape)
            for i, w in enumerate(self._windows):
                rhs[lead + (i,)] = window(ext, w)
            rhs = rhs.reshape(self.classes, nloc * m, -1)
            sol = np.empty_like(rhs)
            for run in runs:
                np.matmul(self._inverses(run), rhs[run], out=sol[run])
            del rhs
            sol = sol.reshape(shape)
            ext = np.zeros(ext.shape)
            for i, w in enumerate(self._windows):
                target = window(ext, w)
                target += sol[lead + (i,)]
            for j in range(d):
                ext[lead[:j] + (slice(0, l - 1),)] += ext[lead[:j] + (slice(side, None),)]
                ext = ext[lead[:j] + (slice(0, side),)]
            out[..., block] = t.to_flat(ext)
        out *= self._weight
        return out if flat.ndim == 3 else out[..., 0]

    # -- raw operations ------------------------------------------------------

    def smooth_raw(self, flat: np.ndarray) -> np.ndarray:
        """Averaged projection of a (sites, m) field or of each column of (sites, m, B)."""
        if self.whole_torus:
            return _whole_torus_project_raw(flat)
        return self.solve_all_translates(self.op.apply_raw(flat))

    def fluctuation_raw(self, flat: np.ndarray) -> np.ndarray:
        return flat - self.smooth_raw(flat)

    def smooth_transpose_raw(self, flat: np.ndarray) -> np.ndarray:
        """l2 transpose of ``smooth``: local solves first, operator last."""
        if self.whole_torus:
            return _whole_torus_project_raw(flat)
        return self.op.apply_raw(self.solve_all_translates(flat))

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
