"""Coefficient fields A(x) on the torus and their smallness measurements.

A coefficient assigns to every site a symmetric linear map on m-by-d gradient
stacks, stored as an (md, md) matrix acting on the row-major flattening of the
stack.  The deviation from a constant reference is measured by the scaled
smoothness norm: the sup over sites and multi-indices ``|b| <= 3`` of
``side^|b|`` times the spectral norm of the entrywise forward difference
``D^b A``.  Perturbed fields are built from finite trigonometric profiles so
the construction budget can be checked against an analytically smooth family.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .lattice import (
    MULTI_INDEX_CAP,
    LatticeError,
    LatticeTorus,
)
from . import tableio

SYMMETRY_TOL = 1e-12


class NonEllipticError(ValueError):
    """The quadratic form of the coefficient field is not positive definite."""


class BudgetError(ValueError):
    """Realized smoothness norm exceeds the declared construction budget."""


def _spectral_norms(mats: np.ndarray) -> np.ndarray:
    """Spectral norm per site of a stack of symmetric matrices."""
    return np.abs(np.linalg.eigvalsh(mats)).max(axis=-1)


@dataclass(frozen=True)
class CoefficientField:
    """Site-dependent symmetric positive map on gradient stacks."""

    torus: LatticeTorus
    values: np.ndarray  # (sites, m*d, m*d)

    def __post_init__(self):
        md = self.torus.m * self.torus.d
        v = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if v.shape != (self.torus.sites, md, md):
            raise LatticeError(
                f"coefficient shape {v.shape} does not match (sites, {md}, {md})"
            )
        asym = np.abs(v - v.transpose(0, 2, 1)).max()
        if asym > SYMMETRY_TOL:
            raise NonEllipticError(f"coefficient symmetry residual {asym:.3e}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @staticmethod
    def constant(torus: LatticeTorus, matrix: np.ndarray) -> "CoefficientField":
        md = torus.m * torus.d
        mat = np.asarray(matrix, dtype=np.float64)
        if mat.shape == ():
            mat = float(mat) * np.eye(md)
        if mat.shape != (md, md):
            raise LatticeError(f"constant coefficient must be ({md}, {md})")
        return CoefficientField(torus, np.broadcast_to(mat, (torus.sites, md, md)).copy())

    @staticmethod
    def identity(torus: LatticeTorus) -> "CoefficientField":
        return CoefficientField.constant(torus, np.eye(torus.m * torus.d))

    def content_hash(self) -> str:
        return tableio.array_hash(self.values)


def _coefficient_periods(coefficients: CoefficientField) -> tuple[int, ...]:
    """Smallest period of the coefficient field along each axis.

    Only an exact match counts, so a missed period costs speed, never
    accuracy.  The smallest period divides the side, so only divisors are
    tried.
    """
    t = coefficients.torus
    grid = t.to_grid(coefficients.values)
    return tuple(
        next(p for p in range(1, t.side + 1) if t.side % p == 0
             and np.array_equal(np.roll(grid, p, axis=j), grid))
        for j in range(t.d)
    )


def _period_cell(torus: LatticeTorus, periods: tuple[int, ...]) -> np.ndarray:
    """Row-major site indices of the period cell [0, P_0) x ... x [0, P_(d-1))."""
    return np.ravel_multi_index(np.indices(periods).reshape(torus.d, -1), torus.shape)


def ellipticity_constants(A: CoefficientField) -> tuple[float, float]:
    """Extreme eigenvalues of the quadratic form over all sites.

    The field repeats with its periods, so one period cell holds every site
    block.  Raises NonEllipticError when the smallest eigenvalue is not
    positive.
    """
    cell = _period_cell(A.torus, _coefficient_periods(A))
    eigs = np.linalg.eigvalsh(A.values[cell])
    c0 = float(eigs[:, 0].min())
    c1 = float(eigs[:, -1].max())
    if c0 <= 0:
        raise NonEllipticError(f"coefficient field is not elliptic: c0={c0:.3e}")
    return c0, c1


def scaled_smoothness_norm(
    A: CoefficientField,
    reference: np.ndarray | None = None,
) -> float:
    """Sup over sites and |b| <= 3 of side^|b| * ||D^b (A - reference)(x)||.

    The order cap is fixed at ``MULTI_INDEX_CAP`` = 3, the C^3 smoothness
    class of the coefficient fields.  The zero-order term is the plain sup of
    the spectral norm; differences use forward stencils entrywise.  With
    ``reference`` set this measures the deviation from a constant map, which
    is the smallness parameter used by the decomposition bounds.  Every
    ``D^b A`` has the periods of A, so the sup over one period cell is the
    sup over the torus; the differences are taken on the cell, extended
    periodically by ``MULTI_INDEX_CAP`` sites per axis.
    """
    torus = A.torus
    md = torus.m * torus.d
    in_cell = tuple(slice(0, p) for p in _coefficient_periods(A))
    cell = torus.to_grid(A.values.reshape(torus.sites, md * md))[in_cell]
    if reference is not None:
        cell = cell - np.asarray(reference, dtype=np.float64).reshape(md * md)
    padded = np.pad(cell, [(0, MULTI_INDEX_CAP)] * torus.d + [(0, 0)], mode="wrap")
    scale = float(torus.side)
    best = 0.0
    for exps in product(range(MULTI_INDEX_CAP + 1), repeat=torus.d):
        order = sum(exps)
        if order > MULTI_INDEX_CAP:
            continue
        diff = padded
        for axis, reps in enumerate(exps):
            for _ in range(reps):
                diff = np.diff(diff, axis=axis)
        val = scale ** order * _spectral_norms(diff[in_cell].reshape(-1, md, md)).max()
        best = max(best, float(val))
    return best


@dataclass(frozen=True)
class TrigMode:
    """One term of a trigonometric profile: sin(2*pi*(freq . theta) + phase) * amplitude."""

    frequency: tuple[int, ...]
    amplitude: np.ndarray  # (md, md) symmetric
    phase: float = 0.0


@dataclass(frozen=True)
class PerturbationSpec:
    """Constant base map plus a scaled smooth trigonometric deviation.

    The realized field is ``A(x) = A0 + epsilon * B(x / side)`` where B is the
    finite trigonometric sum described by ``modes``.  ``budget`` bounds the
    scaled smoothness norm of ``A - A0``; when omitted it defaults to
    ``0.05 * c0(A0)``, recorded in every report that uses the field.
    """

    base: np.ndarray
    epsilon: float
    modes: tuple[TrigMode, ...] = ()
    budget: float | None = None

    def resolved_budget(self) -> float:
        if self.budget is not None:
            return float(self.budget)
        c0 = float(np.linalg.eigvalsh(np.asarray(self.base, dtype=np.float64))[0])
        return 0.05 * c0


def _profile_values(torus: LatticeTorus, modes: tuple[TrigMode, ...]) -> np.ndarray:
    md = torus.m * torus.d
    out = np.zeros((torus.sites, md, md))
    theta = torus.all_coords().astype(np.float64) / torus.side
    for mode in modes:
        freq = np.asarray(mode.frequency, dtype=np.float64)
        if freq.shape != (torus.d,):
            raise LatticeError(f"mode frequency must have {torus.d} entries")
        amp = np.asarray(mode.amplitude, dtype=np.float64)
        if amp.shape != (md, md) or np.abs(amp - amp.T).max() > SYMMETRY_TOL:
            raise NonEllipticError("mode amplitude must be a symmetric (md, md) matrix")
        out += np.sin(2 * np.pi * theta @ freq + mode.phase)[:, None, None] * amp
    return out


def make_perturbed(spec: PerturbationSpec, torus: LatticeTorus) -> CoefficientField:
    """Realize a perturbation spec, enforcing ellipticity and the budget."""
    md = torus.m * torus.d
    base = np.asarray(spec.base, dtype=np.float64)
    if base.shape == ():
        base = float(base) * np.eye(md)
    if base.shape != (md, md) or np.abs(base - base.T).max() > SYMMETRY_TOL:
        raise NonEllipticError(f"base map must be a symmetric ({md}, {md}) matrix")
    vals = base[None, :, :] + spec.epsilon * _profile_values(torus, spec.modes)
    A = CoefficientField(torus, vals)
    ellipticity_constants(A)  # raises NonEllipticError when lost
    if spec.epsilon != 0:
        realized = scaled_smoothness_norm(A, reference=base)
        budget = spec.resolved_budget()
        if realized > budget:
            raise BudgetError(
                f"realized smoothness norm {realized:.6e} exceeds budget {budget:.6e}"
            )
    return A


# ---------------------------------------------------------------------------
# structured-text coefficient specs and binary export

#: The coefficient section of a config (kinds as ``tableio.check_json`` reads them).
COEFFICIENT_SCHEMA = {
    "d": int, "m": int, "L": int, "N": int, "A0": tableio.MATRIX, "epsilon": float,
    "budget?": float,
    "modes?": [{"frequency": [int], "amplitude": tableio.MATRIX, "phase?": float}],
}


def spec_from_config(cfg: dict) -> tuple[LatticeTorus, PerturbationSpec]:
    """Parse the coefficient section of a config; it must fit ``COEFFICIENT_SCHEMA``."""
    tableio.check_json(cfg, COEFFICIENT_SCHEMA, "coefficients")
    modes = tuple(TrigMode(tuple(mode["frequency"]), np.asarray(mode["amplitude"], float),
                           float(mode.get("phase", 0.0))) for mode in cfg.get("modes", []))
    spec = PerturbationSpec(np.asarray(cfg["A0"], dtype=np.float64), float(cfg["epsilon"]),
                            modes, float(cfg["budget"]) if "budget" in cfg else None)
    return LatticeTorus(cfg["d"], cfg["m"], cfg["L"], cfg["N"]), spec


def export_table(A: CoefficientField, stem) -> dict:
    """Write the field as a site-major binary table with a JSON header."""
    t = A.torus
    meta = {"kind": "coefficients", "d": t.d, "m": t.m, "L": t.L, "N": t.N}
    return tableio.write_table(stem, A.values, meta)


def import_table(stem) -> CoefficientField:
    values, header = tableio.read_table(stem)
    meta = header.get("meta", {})
    torus = LatticeTorus(int(meta["d"]), int(meta["m"]), int(meta["L"]), int(meta["N"]))
    return CoefficientField(torus, values)
