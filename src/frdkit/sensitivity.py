"""First-order dependence of kernels on the coefficient field.

Directional derivatives are estimated by central finite differences of the
kernel slices along a symmetric coefficient direction, with a Richardson
consistency check across step sizes.  For the full Green slice the estimate
is validated against exact first-order perturbation theory, which holds at
every elliptic base, constant or not: the derivative of the inverse is minus
the inverse times the direction's divergence-form operator times the
inverse, computable with two extra solves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .lattice import LatticeError, divergence_star_raw, gradient_stack_raw
from .coefficients import (
    CoefficientField,
    ellipticity_constants,
    scaled_smoothness_norm,
)
from .operators import EllipticOperator, KernelColumn
from .decomposition import Decomposition, DecompositionPlan

#: Probe solves run three orders tighter than the library default because
#: central differencing divides the solver error by twice the step size.
PROBE_TOL = 1e-13


@dataclass(frozen=True)
class DirectionalProbe:
    """Finite-difference probe of one level kernel along one direction.

    The direction must keep the perturbed fields elliptic for every step and
    its scaled smoothness norm is normalized to at most one; margins are
    recorded rather than assumed.
    """

    base: CoefficientField
    direction: CoefficientField
    steps: tuple[float, ...]
    level: int
    source: int
    plan: DecompositionPlan | None = None
    tol: float = PROBE_TOL

    def __post_init__(self):
        if self.base.torus != self.direction.torus:
            raise LatticeError("base and direction tori differ")
        if not self.steps or any(h <= 0 for h in self.steps):
            raise LatticeError("steps must be positive")
        norm = scaled_smoothness_norm(self.direction)
        if norm > 1.0 + 1e-9:
            raise LatticeError(
                f"direction smoothness norm {norm:.3e} exceeds 1"
            )

    def shifted(self, h: float) -> CoefficientField:
        return CoefficientField(self.base.torus,
                                self.base.values + h * self.direction.values)

    def margins(self) -> dict:
        """Ellipticity margin at the largest probed step, both signs."""
        hmax = max(self.steps)
        out = {}
        for sign in (+1.0, -1.0):
            c0, c1 = ellipticity_constants(self.shifted(sign * hmax))
            out[f"c0_at_{sign * hmax:+g}"] = c0
        return out


def _slice_at(probe: DirectionalProbe, h: float, level: int | None) -> np.ndarray:
    """Kernel slice at base + h * direction: the Green slice, or a level's.

    Every solve runs at ``probe.tol``: a level slice comes from the probe's
    plan (default ``DecompositionPlan.default``) with that solver tolerance.
    Raises NonEllipticError when the step leaves the elliptic cone.
    """
    op = EllipticOperator(probe.shifted(h))
    if level is None:
        return op.green_column(probe.source, probe.tol).values
    plan = replace(probe.plan or DecompositionPlan.default(op.torus),
                   solver_tol=probe.tol)
    return Decomposition(op, plan).level_kernel_column(level, probe.source).values


def _central_differences(probe: DirectionalProbe, level: int | None) -> dict:
    """Central-difference derivative of the slice at each step, coarsest first."""
    return {h: (_slice_at(probe, h, level) - _slice_at(probe, -h, level)) / (2 * h)
            for h in sorted(probe.steps, reverse=True)}


def directional_derivative(probe: DirectionalProbe) -> tuple[KernelColumn, dict]:
    """Central-difference derivative of a level kernel slice, with a report.

    The slice is the estimate at the finest step.  With three or more steps
    the report's ``richardson_ratio`` is the sup distance between the two
    coarsest estimates over that between the second and third; the error
    is second order in the step, so halving steps give a ratio near four.
    """
    estimates = _central_differences(probe, probe.level)
    hs = list(estimates)
    finest = estimates[hs[-1]]
    report = {"steps": hs, "margins": probe.margins(),
              "max_abs": float(np.abs(finest).max())}
    if len(hs) >= 3:
        d1 = float(np.abs(estimates[hs[0]] - estimates[hs[1]]).max())
        d2 = float(np.abs(estimates[hs[1]] - estimates[hs[2]]).max())
        report["richardson_ratio"] = d1 / d2 if d2 > 0 else float("inf")
    col = KernelColumn(probe.base.torus, probe.source, finest,
                       f"derivative:level{probe.level}:h{hs[-1]:g}", probe.tol)
    return col, report


def green_derivative_estimate(probe: DirectionalProbe) -> tuple[np.ndarray, dict]:
    """Central differences of the full Green slice (sum over all levels).

    Returns the finest-step estimate; the report holds every step's
    estimate under ``estimates``.
    """
    estimates = _central_differences(probe, None)
    report = {"estimates": estimates, "steps": list(estimates), "margins": probe.margins()}
    return estimates[min(estimates)], report


def green_derivative_oracle(probe: DirectionalProbe) -> np.ndarray:
    """Exact first-order change of the Green slice: -(solve, direction-apply, solve).

    Exact at every elliptic base.  One block solve gives the slice's m
    unit-source columns, and one more solves the direction's images of all.
    """
    t = probe.base.torus
    op = EllipticOperator(probe.base)
    g = op.green_column(probe.source, probe.tol).values
    # apply the direction's divergence-form operator to every column
    G = gradient_stack_raw(t, g).reshape(t.sites, t.m * t.d, t.m)
    F = np.einsum("spq,sqb->spb", probe.direction.values, G)
    w = divergence_star_raw(t, F.reshape(t.sites, t.m, t.d, t.m))
    du, _ = op.solve_green_raw(-w, probe.tol)
    return du


def lipschitz_scan(probe: DirectionalProbe) -> dict:
    """Kernel distance versus step size: log-log slope near one means Lipschitz.

    Also reports the first-order homogeneity ratio under doubling of the
    direction (ratio of leading distances, expected near two).
    """
    if len(probe.steps) < 2:
        raise LatticeError("scan needs at least two steps")
    base_col = _slice_at(probe, 0.0, probe.level)
    hs = sorted(probe.steps)
    *dists, doubled = [float(np.abs(_slice_at(probe, h, probe.level) - base_col).max())
                       for h in hs + [2 * hs[0]]]
    slope = float(np.polyfit(np.log(np.array(hs)), np.log(np.array(dists)), 1)[0])
    return {
        "steps": hs,
        "distances": dists,
        "loglog_slope": slope,
        "doubling_ratio": doubled / dists[0] if dists[0] > 0 else float("inf"),
        "margins": probe.margins(),
    }
