"""Verification suites over a built decomposition.

Each suite returns report records; asserted records drive exit codes, while
reported-only records carry fitted constants and degenerate cases (empty far
regions, single-level decay fits).  Slacks are fixed: far fields are compared
against ``100 * depth * solver_tol`` times the kernel sup, the stored kernels
against the relative error ``RECONSTRUCTION_RTOL``, and Rayleigh quotients and
dense eigenvalues against ``-POSITIVITY_SLACK``.
"""

from __future__ import annotations

import numpy as np

from .decomposition import BLOCK_BYTES, Decomposition
from .lattice import column_blocks
from .operators import mean_projector, ORACLE_SITE_LIMIT
from .reporting import NormReport
from . import calibration, regularity

RECONSTRUCTION_RTOL = 1e-7
POSITIVITY_SLACK = 1e-7
DEFAULT_PROBES = 200


def range_suite(dec: Decomposition) -> list[NormReport]:
    """Far-field constancy of every ranged level at every stored source."""
    depth = dec.plan.depth
    slack = 100 * depth * dec.plan.solver_tol
    records = []
    sources = dec.sources
    for k in range(1, dec.plan.levels + 1):
        for s in sources:
            stats = dec.far_field_stats(k, s)
            ranged = k <= depth
            records.append(NormReport(
                check="finite_range",
                params={"level": k, "source": s, "far_sites": stats["far_sites"]},
                lhs=stats["far_std"],
                rhs=stats["max_abs"],
                constant=slack,
                asserted=ranged and stats["far_sites"] > 1,
                extra={"far_spread": stats["far_spread"],
                       "constant_block": stats["constant_block"],
                       "range_claim": ranged},
            ))
    return records


def _probe_block(t, n_probes: int, seed: int) -> np.ndarray:
    """(sites, m, n_probes) mean-zero Gaussian probes, drawn probe by probe."""
    rng = np.random.default_rng(seed)
    probes = rng.standard_normal((n_probes, t.sites, t.m))
    probes -= probes.mean(axis=1, keepdims=True)
    return np.moveaxis(probes, 0, -1)


def _solve_extra(reports) -> dict:
    """Deterministic solver counters of a suite's block solves."""
    return {"solve_iterations": sum(r.iterations for r in reports),
            "solve_residual": max((r.residual for r in reports), default=0.0)}


def reconstruction_suite(dec: Decomposition) -> list[NormReport]:
    """Relative error of the operator image of sum_k K_k(., s) against
    delta_s - 1/sites, worst over the stored sources s: the extraction error."""
    t = dec.op.torus
    sources = dec.sources
    worst = 0.0
    for block in column_blocks(len(sources), t.sites * t.m * t.m * 8, BLOCK_BYTES):
        srcs = sources[block]
        total = np.stack([dec.kernel_sum(s) for s in srcs], axis=2)
        delta = np.zeros(total.shape)
        delta[srcs, :, np.arange(len(srcs)), :] = np.eye(t.m)
        delta = (delta - delta.mean(axis=0)).reshape(t.sites, t.m, -1)
        image = dec.op.apply_raw(total.reshape(t.sites, t.m, -1))
        err = np.linalg.norm(image - delta, axis=(0, 1)) / np.linalg.norm(delta, axis=(0, 1))
        worst = max(worst, float(err.max()))
    return [NormReport(
        check="reconstruction",
        params={"sources": len(sources)},
        lhs=worst,
        rhs=RECONSTRUCTION_RTOL,
        constant=1.0,
        extra={"levels": dec.plan.levels},
    )]


def positivity_suite(dec: Decomposition, n_probes: int = DEFAULT_PROBES,
                     seed: int = 1) -> list[NormReport]:
    """Rayleigh quotients on random probes; dense smallest eigenvalue when small."""
    t = dec.op.torus
    phi = _probe_block(t, n_probes, seed)
    records = []
    worst = {k: 0.0 for k in range(1, dec.plan.levels + 1)}
    reports = []
    for block in column_blocks(n_probes, t.sites * t.m * 8, BLOCK_BYTES):
        probes = phi[..., block]
        levels, rep = dec.apply_all_levels_raw(probes, with_report=True)
        reports.append(rep)
        nn = np.einsum("smb,smb->b", probes, probes)
        for k, level in enumerate(levels, start=1):
            quotients = np.einsum("smb,smb->b", level, probes) / nn
            worst[k] = min(worst[k], float(quotients.min()))
    solve = _solve_extra(reports)
    for k in range(1, dec.plan.levels + 1):
        records.append(NormReport(
            check="positivity_rayleigh",
            params={"level": k, "probes": n_probes, "seed": seed},
            lhs=-worst[k] if worst[k] < 0 else 0.0,
            rhs=POSITIVITY_SLACK,
            constant=1.0,
            extra={"min_rayleigh": worst[k], **solve},
        ))
    if t.sites * t.m <= ORACLE_SITE_LIMIT:
        mats, dense_solve = dense_level_matrices(dec, with_report=True)
        for k, mat in enumerate(mats, start=1):
            eig = float(np.linalg.eigvalsh(mat)[0])
            records.append(NormReport(
                check="positivity_dense_eig",
                params={"level": k, "dim": mat.shape[0]},
                lhs=-eig if eig < 0 else 0.0,
                rhs=POSITIVITY_SLACK,
                constant=1.0,
                extra={"min_eigenvalue": eig, **dense_solve},
            ))
    return records


def dense_level_matrices(dec: Decomposition, with_report: bool = False):
    """Dense symmetric level operators on the mean-zero subspace.

    Built by applying every level to the projected basis, in column blocks;
    the outputs are mean-projected already, and the symmetrization removes
    the asymmetry left by roundoff and by the last level's Green solve.
    With ``with_report`` the solver counters come back too.
    """
    t = dec.op.torus
    n = t.sites * t.m
    if n > ORACLE_SITE_LIMIT:
        raise ValueError(f"dense level assembly limited to {ORACLE_SITE_LIMIT}")
    mats = [np.zeros((n, n)) for _ in range(dec.plan.levels)]
    reports = []
    for block in column_blocks(n, n * 8, BLOCK_BYTES):
        width = block.stop - block.start
        e = np.zeros((n, width))
        e[block] = np.eye(width)
        e = e.reshape(t.sites, t.m, width)
        levels, rep = dec.apply_all_levels_raw(e - e.mean(axis=0), with_report=True)
        reports.append(rep)
        for k, level in enumerate(levels):
            mats[k][:, block] = level.reshape(n, width)
    P = mean_projector(t)
    mats = [P @ (0.5 * (M + M.T)) @ P for M in mats]
    return (mats, _solve_extra(reports)) if with_report else mats


def decay_suite(dec: Decomposition) -> list:
    """Strict level decay plus fitted slopes of the values and first
    differences; report-only when under-determined."""
    orders = (0, 1)
    report = regularity.level_decay_report(dec, dec.sources, orders)
    records: list = [report]
    for a in orders:
        vals = report.maxima[a]
        decreasing = report.strictly_decreasing(a)
        records.append(NormReport(
            check="decay_strict_decrease",
            params={"alpha_order": a},
            lhs=0.0 if decreasing else 1.0,
            rhs=0.0,
            constant=1.0,
            asserted=report.asserted,
            extra={"maxima": list(vals)},
        ))
        slope = report.slopes[a]["claimed_fit"]
        target = report.slopes[a]["target"]
        records.append(NormReport(
            check="decay_slope",
            params={"alpha_order": a},
            lhs=slope if np.isfinite(slope) else 0.0,
            rhs=target,
            constant=1.0,
            asserted=report.asserted,
            extra=report.slopes[a],
        ))
    return records


def regularity_suite(n_seeds: int | None = None) -> list[NormReport]:
    """The frozen-constant corpus, by default over the seeds it was swept on."""
    if n_seeds is None:
        n_seeds = calibration.CALIBRATION["corpus_seeds"]
    records = []
    for i in range(n_seeds):
        records.extend(calibration.corpus_records(i))
    return records


def run_suites(dec: Decomposition, which: str = "all", seed: int = 0) -> list:
    records: list = []
    names = (["range", "positivity", "reconstruction", "decay", "regularity"]
             if which == "all" else [which])
    for name in names:
        if name == "regularity":
            records.extend(regularity_suite())
        elif name == "range":
            records.extend(range_suite(dec))
        elif name == "positivity":
            records.extend(positivity_suite(dec, seed=seed + 1))
        elif name == "reconstruction":
            records.extend(reconstruction_suite(dec))
        elif name == "decay":
            records.extend(decay_suite(dec))
        else:
            raise ValueError(f"unknown suite {name!r}")
    return records
