"""Seeded corpus for the regularity suite and the constant-sweep protocol.

The corpus fixes, per dimension, one perturbed-coefficient operator on a
side-9 torus and a family of nested cubes; each seed contributes random test
fields and the harmonic extensions derived from them.  ``corpus_records``
evaluates every suite check for one seed against the frozen constants;
``run_sweep`` reads the same records, takes the worst observed lhs/rhs ratio
per check (a ratio does not depend on the constant it is compared against),
and applies the safety margin.  Freezing the swept values in
``constants.py`` turns the up-to-constants estimates into reproducible
assertions without inventing numbers the estimates do not state.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import LatticeField, LatticeTorus
from .coefficients import PerturbationSpec, TrigMode, make_perturbed
from .operators import EllipticOperator
from .smoothing import Cube, CubeProjector
from .constants import CALIBRATION
from . import regularity


def reference_operator(d: int) -> EllipticOperator:
    """Perturbed side-9 operator used by the corpus (d = 2 or 3)."""
    torus = LatticeTorus(d, 1, 3, 2)
    spec = PerturbationSpec(
        base=np.eye(d),
        epsilon=0.05,
        modes=(TrigMode(frequency=(1,) + (0,) * (d - 1), amplitude=np.eye(d)),),
        budget=20.0,
    )
    return EllipticOperator(make_perturbed(spec, torus))


class _CorpusContext:
    """Per-dimension fixtures shared across seeds."""

    def __init__(self, d: int):
        self.d = d
        self.op = reference_operator(d)
        self.torus = self.op.torus
        self.harmonic_cube = Cube((0,) * d, 8)
        self.outer = Cube((0,) * d, 7)
        self.inner = Cube((2,) * d, 3)
        self.fs_cube = Cube((1,) * d, 6 if d == 2 else 4)
        self.work_cube = Cube((0,) * d, 7)
        self._projector = CubeProjector(self.op, self.harmonic_cube)

    def random_field(self, rng) -> LatticeField:
        return LatticeField(self.torus, rng.standard_normal((self.torus.sites, 1)))

    def harmonic_field(self, rng) -> LatticeField:
        phi = self.random_field(rng)
        vals = phi.values - self._projector.project_raw(phi.values)
        return LatticeField(self.torus, vals)


_CONTEXTS: dict[int, _CorpusContext] = {}


def _context(d: int) -> _CorpusContext:
    if d not in _CONTEXTS:
        _CONTEXTS[d] = _CorpusContext(d)
    return _CONTEXTS[d]


def corpus_records(seed_index: int) -> list:
    """All regularity-suite checks for one corpus seed, both dimensions."""
    records = []
    for d in (2, 3):
        ctx = _context(d)
        rng = np.random.default_rng(CALIBRATION["base_seed"] + 1000 * d + seed_index)
        f = ctx.random_field(rng)
        u = ctx.harmonic_field(rng)

        records.append(regularity.sobolev_check(f, "i", ctx.work_cube, p=2.0, q=3.0))
        records.append(regularity.sobolev_check(f, "ii", ctx.work_cube, p=float(d + 2)))
        records.append(regularity.sobolev_check(f, "iv", ctx.work_cube))
        records.append(regularity.caccioppoli_check(ctx.op, u, ctx.outer, ctx.inner))
        records.extend(regularity.decay_estimate_check(ctx.op, u, ctx.outer, ctx.inner))
        records.append(regularity.hardy_littlewood_check(f))
        records.extend(regularity.fefferman_stein_check(f, ctx.fs_cube))
        records.append(regularity.weak_vs_strong_check(f, 2.0))
    return records


def auxiliary_records() -> list:
    """Smaller sweeps for the solve-backed checks (cube problems, projections):
    20 seeds per dimension."""
    records = []
    for d in (2, 3):
        ctx = _context(d)
        t = ctx.torus
        for i in range(20):
            rng = np.random.default_rng(
                CALIBRATION["base_seed"] + 77000 + 1000 * d + i)
            fmat = rng.standard_normal((t.sites, t.m, t.d))
            g = rng.standard_normal((t.sites, t.m))
            records.append(regularity.weak_interpolation_check(
                ctx.op, ctx.work_cube, fmat))
            if d == 3:
                records.append(regularity.global_estimate_check(
                    ctx.op, ctx.work_cube, fmat, g, p=2.5, q=1.5))
                records.append(regularity.sobolev_check(
                    ctx.random_field(rng), "iii", ctx.work_cube,
                    p=1.0, q=2.0, order=2))
    ctx3 = _context(3)
    for cubes in ([], [Cube((2, 2, 2), 5)], [Cube((2, 2, 2), 5), Cube((3, 3, 3), 3)]):
        records.append(regularity.projection_bound_check(
            ctx3.op, cubes, (0, 0, 0), j=0))
    return records


def run_sweep() -> dict:
    """Worst observed ratio per swept check across the corpus, with margin.

    The seed count and margin are ``CALIBRATION``'s.  Returns the dict to
    freeze into ``constants.SWEPT_CONSTANTS``.
    """
    worst: dict[str, float] = {}
    records = [rec for i in range(CALIBRATION["corpus_seeds"])
               for rec in corpus_records(i)]
    for rec in records + auxiliary_records():
        if rec.check in ("caccioppoli", "weak_le_strong"):
            continue  # asserted with stated constants, not swept
        key = _sweep_key(rec.check)
        worst[key] = max(worst.get(key, 0.0), rec.ratio)
    return {k: _round_up_3sig(v * CALIBRATION["margin"]) for k, v in sorted(worst.items())}


def _sweep_key(check: str) -> str:
    return {"hardy_littlewood": "hardy_littlewood_p2"}.get(check, check)


def _round_up_3sig(x: float) -> float:
    """Round up to three significant digits, as the nearest double to them."""
    if x <= 0 or not math.isfinite(x):
        return x
    exp = math.floor(math.log10(x))
    scale = 10.0 ** (exp - 2)
    return round(math.ceil(x / scale) * scale, 2 - exp)
