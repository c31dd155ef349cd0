"""Matrix-free elliptic operator, Dirichlet form, and mean-zero Green solves.

The operator is applied as: assemble the forward-difference gradient stack,
multiply by the per-site coefficient map, then apply the adjoint divergence.
Its inverse on mean-zero fields is computed by preconditioned conjugate
gradients with the iterate re-projected to mean zero every step; the operator
matrix is never assembled outside the small dense oracle used by tests.

The preconditioner is the exact inverse of the same operator with every site's
coefficient replaced by the site mean.  A constant-coefficient operator on the
torus is diagonal in Fourier space, so that inverse is one real FFT, an m-by-m
product per frequency, and one inverse FFT.  The two operators are spectrally
equivalent with constants set by the coefficient contrast alone, not by the
side, so the iteration count stays flat as the torus grows, where a pointwise
(Jacobi) preconditioner needs a number of steps proportional to the side.
With constant coefficients the preconditioner is the inverse itself and the
solve takes one step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import (
    LatticeField,
    LatticeTorus,
    column_blocks,
    divergence_star_raw,
    gradient_stack_raw,
    mean_zero_tolerance,
)
from .coefficients import CoefficientField, ellipticity_constants
from . import tableio

DEFAULT_TOL = 1e-10
ORACLE_SITE_LIMIT = 4096
#: Bytes of one block vector in a block Green solve; columns beyond it go to
#: further blocks, since a larger block falls out of cache.  Where fewer than
#: ``_MIN_BLOCK_COLUMNS`` fit, columns are solved one by one: numpy's inner
#: loops over a short trailing axis then cost more than the per-call
#: overhead that a block saves.
_SOLVE_BLOCK_BYTES = 1 << 20
_MIN_BLOCK_COLUMNS = 16


class TorusMismatchError(ValueError):
    """Field and operator live on different tori."""


class MeanZeroError(ValueError):
    """A solve was requested for a right-hand side with nonzero mean."""


class ConvergenceError(RuntimeError):
    """The iterative solver missed its tolerance within the iteration budget."""

    def __init__(self, message: str, report: "SolveReport"):
        super().__init__(message)
        self.report = report


class OracleSizeError(ValueError):
    """Dense oracle requested beyond the supported size."""


@dataclass(frozen=True)
class SolveReport:
    """PCG steps taken and the worst relative residual ||f - A u|| / ||f||."""

    iterations: int
    residual: float
    tol: float


@dataclass(frozen=True)
class KernelColumn:
    """Matrix-valued kernel slice at a fixed source site.

    ``values[y, :, a]`` is the field response at site y to the unit source in
    component a placed at ``source``.
    """

    torus: LatticeTorus
    source: int
    values: np.ndarray  # (sites, m, m)
    provenance: str
    tol: float

    def export(self, stem) -> dict:
        t = self.torus
        meta = {
            "kind": "kernel-column",
            "d": t.d, "m": t.m, "L": t.L, "N": t.N,
            "source": int(self.source),
            "provenance": self.provenance,
            "tol": self.tol,
        }
        return tableio.write_table(stem, self.values, meta)

    @staticmethod
    def import_table(stem, sha256: str | None = None) -> "KernelColumn":
        values, header = tableio.read_table(stem, sha256)
        meta = header["meta"]
        torus = LatticeTorus(int(meta["d"]), int(meta["m"]), int(meta["L"]), int(meta["N"]))
        return KernelColumn(torus, int(meta["source"]), values,
                            str(meta["provenance"]), float(meta["tol"]))


class EllipticOperator:
    """Divergence-form operator with variable symmetric coefficients."""

    def __init__(self, coefficients: CoefficientField):
        self.coefficients = coefficients
        self.torus = coefficients.torus
        self.c0, self.c1 = ellipticity_constants(coefficients)
        self._symbol_inv = None

    # -- raw array plumbing ------------------------------------------------

    def apply_raw(self, flat: np.ndarray) -> np.ndarray:
        """Operator image of a (sites, m) field or of each column of (sites, m, B)."""
        t = self.torus
        if flat.ndim == 3 and flat.shape[2] == 1:
            return self.apply_raw(flat[..., 0])[..., None]
        if flat.ndim == 3:
            B = flat.shape[2]
            G = gradient_stack_raw(t, flat).reshape(t.sites, t.m * t.d, B)
            F = np.matmul(self.coefficients.values, G)
            return divergence_star_raw(t, F.reshape(t.sites, t.m, t.d, B))
        G = gradient_stack_raw(t, flat).reshape(t.sites, t.m * t.d)
        F = np.einsum("spq,sq->sp", self.coefficients.values, G)
        return divergence_star_raw(t, F.reshape(t.sites, t.m, t.d))

    def dirichlet_form_raw(self, u: np.ndarray, v: np.ndarray) -> float:
        t = self.torus
        Gu = gradient_stack_raw(t, u).reshape(t.sites, t.m * t.d)
        Gv = gradient_stack_raw(t, v).reshape(t.sites, t.m * t.d)
        return float(np.einsum("sp,spq,sq->", Gu, self.coefficients.values, Gv))

    def mean_symbol_inv(self) -> np.ndarray:
        """Inverse Fourier symbol of the operator at the site-mean coefficient.

        With g_j = e^{i theta_j} - 1 the forward difference, the symbol is
        S(theta)_ab = sum_jk conj(g_j) Abar[(a, j), (b, k)] g_k.  It lives on
        the ``rfftn`` half-grid, shape (side, ..., side//2 + 1, m, m); the
        zero frequency holds 0, the pseudo-inverse on mean-zero fields.  Abar
        is positive definite because every site's block is, so S(theta) is
        positive definite at every other frequency.
        """
        if self._symbol_inv is None:
            t = self.torus
            Abar = self.coefficients.values.mean(axis=0).reshape(t.m, t.d, t.m, t.d)
            freqs = [np.arange(t.side)] * (t.d - 1) + [np.arange(t.side // 2 + 1)]
            k = np.stack(np.meshgrid(*freqs, indexing="ij"), axis=-1)
            g = np.exp(2j * np.pi * k / t.side) - 1.0
            S = np.einsum("...j,ajbk,...k->...ab", g.conj(), Abar, g)
            zero = (0,) * t.d
            S[zero] = np.eye(t.m)
            Sinv = np.linalg.inv(S)
            Sinv[zero] = 0.0
            # a Hermitian 1-by-1 symbol is real
            self._symbol_inv = Sinv.real.copy() if t.m == 1 else Sinv
        return self._symbol_inv

    def _precondition(self, r: np.ndarray) -> np.ndarray:
        """Mean-coefficient inverse of every column of a (sites, m, b) block."""
        t = self.torus
        Sinv = self.mean_symbol_inv()
        axes = tuple(range(t.d))
        R = np.fft.rfftn(t.to_grid(r), axes=axes)
        if t.m == 1:
            R *= Sinv
        else:
            R = np.matmul(Sinv, R)
        return t.to_flat(np.fft.irfftn(R, s=t.shape, axes=axes))

    def _check_field(self, phi: LatticeField) -> None:
        if phi.torus != self.torus:
            raise TorusMismatchError("field torus does not match operator torus")

    # -- public operations ---------------------------------------------------

    def apply(self, phi: LatticeField) -> LatticeField:
        """Apply the operator; the image always sums to zero by telescoping."""
        self._check_field(phi)
        return LatticeField(self.torus, self.apply_raw(phi.values), True)

    def dirichlet_form(self, phi: LatticeField, psi: LatticeField) -> float:
        self._check_field(phi)
        self._check_field(psi)
        return self.dirichlet_form_raw(phi.values, psi.values)

    def solve_green_raw(
        self, f: np.ndarray, tol: float = DEFAULT_TOL, max_iter: int | None = None
    ) -> tuple[np.ndarray, SolveReport]:
        """PCG for the mean-zero solution of (operator) u = f.

        The right-hand side must already be mean-zero; the iterate has its
        mean removed every step so roundoff cannot drift into the kernel.
        A (sites, m, B) right-hand side is B independent solves: every column
        keeps its own step sizes, stopping test, mean-zero check and drift
        guard, so it converges exactly as it would alone.  Columns run in
        blocks of at most ``_SOLVE_BLOCK_BYTES`` per vector; the report
        counts the block iterations summed over blocks and the worst relative
        residual of any column.
        """
        t = self.torus
        block = f if f.ndim == 3 else f[..., None]
        sums = np.abs(block.sum(axis=0))
        limits = np.maximum(mean_zero_tolerance(block), 1e-300)
        if (sums.max(axis=0, initial=0.0) > limits).any():
            raise MeanZeroError(f"right-hand side has component sums {sums}")
        if max_iter is None:
            max_iter = max(1000, 40 * t.side * t.d)
        x = np.zeros(block.shape)
        column_bytes = t.sites * t.m * 8
        budget = (_SOLVE_BLOCK_BYTES
                  if _SOLVE_BLOCK_BYTES >= _MIN_BLOCK_COLUMNS * column_bytes else 0)
        iterations, worst = 0, 0.0
        for cols in column_blocks(block.shape[2], column_bytes, budget):
            its, rel = self._pcg(block[..., cols], x[..., cols], tol, max_iter)
            iterations += its
            worst = max(worst, float(rel.max()))
        report = SolveReport(iterations, worst, tol)
        if worst > tol:
            raise ConvergenceError(
                f"no convergence after {iterations} iterations "
                f"(relative residual {worst:.3e})",
                report,
            )
        return (x if f.ndim == 3 else x[..., 0]), report

    def _pcg(self, f: np.ndarray, out: np.ndarray, tol: float,
             max_iter: int) -> tuple[int, np.ndarray]:
        """Block PCG on (sites, m, b) into ``out``; returns steps and relative residuals.

        Converged columns leave the working block, so later steps only apply
        the operator to the columns still running.
        """
        f = f - f.mean(axis=0)
        nf = _column_norms(f)
        rel = np.zeros(nf.shape)
        act = np.flatnonzero(nf > 0.0)
        if not act.size:
            return 0, rel
        fa, nfa = f[..., act], nf[act]
        xa = np.zeros(fa.shape)
        r = fa.copy()
        z = self._precondition(r)
        p = z.copy()
        rz = _column_dots(r, z)
        iterations = 0
        while iterations < max_iter:
            Ap = self.apply_raw(p)
            alpha = rz / _column_dots(p, Ap)
            xa += alpha * p
            xa -= xa.mean(axis=0)
            r -= alpha * Ap
            iterations += 1
            sel = np.flatnonzero(_column_norms(r) <= tol * nfa)
            if sel.size:
                # guard against residual drift
                r[..., sel] = fa[..., sel] - self.apply_raw(xa[..., sel])
                rn = _column_norms(r[..., sel])
                ok = rn <= tol * nfa[sel]
                done = sel[ok]
                if done.size:
                    out[..., act[done]] = xa[..., done]
                    rel[act[done]] = rn[ok] / nfa[done]
                    keep = np.setdiff1d(np.arange(act.size), done)
                    if not keep.size:
                        return iterations, rel
                    act, fa, nfa, rz = act[keep], fa[..., keep], nfa[keep], rz[keep]
                    xa, r, p = xa[..., keep], r[..., keep], p[..., keep]
            z = self._precondition(r)
            rz_new = _column_dots(r, z)
            p = z + (rz_new / rz) * p
            rz = rz_new
        out[..., act] = xa
        rel[act] = _column_norms(fa - self.apply_raw(xa)) / nfa
        return iterations, rel

    def solve_green(
        self, f: LatticeField, tol: float = DEFAULT_TOL
    ) -> tuple[LatticeField, SolveReport]:
        self._check_field(f)
        x, report = self.solve_green_raw(f.values, tol)
        return LatticeField(self.torus, x, True), report

    def green_column(self, x0, tol: float = DEFAULT_TOL) -> KernelColumn:
        """Solve the kernel equation for every unit component at one source.

        The right-hand side per component is the unit mass at the source
        minus the uniform background ``1/sites``, so each column is the
        mean-zero kernel slice.
        """
        t = self.torus
        source = t.site(x0)
        rhs = np.zeros((t.sites, t.m, t.m))
        rhs[source] = np.eye(t.m)
        cols, _ = self.solve_green_raw(rhs - rhs.mean(axis=0), tol)
        tag = f"green:{self.coefficients.content_hash()[:12]}"
        return KernelColumn(t, source, cols, tag, tol)


def _column_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-column inner products of two (sites, m, B) blocks."""
    if u.shape[2] == 1:
        return np.array([np.vdot(u, v)])
    return np.einsum("smb,smb->b", u, v)


def _column_norms(u: np.ndarray) -> np.ndarray:
    return np.sqrt(_column_dots(u, u))


# ---------------------------------------------------------------------------
# dense oracle (tests and sampling only)


def _check_oracle_size(torus: LatticeTorus) -> None:
    if torus.sites > ORACLE_SITE_LIMIT:
        raise OracleSizeError(
            f"dense oracle limited to {ORACLE_SITE_LIMIT} sites, got {torus.sites}"
        )


def dense_matrix(op: EllipticOperator) -> np.ndarray:
    """Dense (sites*m, sites*m) matrix of the operator, by applying to a basis."""
    _check_oracle_size(op.torus)
    t = op.torus
    n = t.sites * t.m
    out = np.zeros((n, n))
    for j in range(n):
        e = np.zeros((t.sites, t.m))
        e[j // t.m, j % t.m] = 1.0
        out[:, j] = op.apply_raw(e).reshape(n)
    return out


def dense_green(op: EllipticOperator) -> np.ndarray:
    """Pseudo-inverse of the dense operator on the mean-zero subspace.

    The kernel of the operator is exactly the m-dimensional space of constant
    fields; eigenvalues below a relative cutoff are treated as that kernel.
    """
    A = dense_matrix(op)
    w, V = np.linalg.eigh(0.5 * (A + A.T))
    cutoff = 1e-12 * max(abs(w[0]), abs(w[-1]))
    inv = np.where(np.abs(w) > cutoff, 1.0 / np.where(np.abs(w) > cutoff, w, 1.0), 0.0)
    return (V * inv) @ V.T


def mean_projector(torus: LatticeTorus) -> np.ndarray:
    """Dense projector removing the per-component mean, on (sites*m) vectors."""
    n = torus.sites * torus.m
    P = np.eye(n)
    for a in range(torus.m):
        idx = np.arange(a, n, torus.m)
        P[np.ix_(idx, idx)] -= 1.0 / torus.sites
    return P
