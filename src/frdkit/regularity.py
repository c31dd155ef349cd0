"""Discrete norms and inequality checks for lattice fields.

Implements the measurement side of the toolkit: weak and strong cube norms,
maximal and sharp functions, BMO, the discrete Sobolev embeddings, interior
(Caccioppoli) and decay estimates for locally harmonic fields, sup bounds for
iterated cube-complement projections of Green slices, and the per-level
kernel decay tabulation.  Checks whose constants the source estimates leave
implicit read them from ``constants.SWEPT_CONSTANTS``, frozen by a documented
corpus sweep (``calibration.run_sweep``); the interior estimate is the
one check asserted with its stated constant, at a declared factor-2 slack for
the discrete cutoff.

Maximal and sharp functions, over the cubes that wrap around the torus and
over the subcubes of one cube alike, come from one windowed sweep
(``_family_sup``): per cube side, the statistic at every anchor is read from
windows (``lattice.cube_windows``) of the field grid, padded periodically
with ``np.pad(..., mode="wrap")`` for the torus family and left unpadded for
the subcube family, and a running max over windows of the padded anchor grid
carries it to every site of the cube.  The two families differ only in how
the grids are padded.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from .lattice import (
    LatticeError,
    LatticeField,
    LatticeTorus,
    cube_sites,
    cube_windows,
    distances_from,
    divergence_star_raw,
    forward_diff_raw,
    grad_multi_raw,
    gradient_stack_raw,
)
from .operators import EllipticOperator, KernelColumn
from .smoothing import Cube, CubeProjector
from .reporting import DecayReport, NormReport
from .constants import SWEPT_CONSTANTS

HARMONIC_RTOL = 1e-7


class NotHarmonicError(ValueError):
    """Test function is not operator-harmonic on the required cube."""


# ---------------------------------------------------------------------------
# pointwise magnitudes and cube norms


def site_magnitudes(values: np.ndarray) -> np.ndarray:
    """Euclidean magnitude per site of any per-site tensor."""
    return np.sqrt((values.reshape(values.shape[0], -1) ** 2).sum(axis=1))


def cube_norm(values: np.ndarray, cube_idx: np.ndarray, p: float) -> float:
    """Normalized cube norm ((1/|Q|) sum |f|^p)^(1/p) of per-site magnitudes."""
    mags = site_magnitudes(values[cube_idx])
    return float((np.mean(mags ** p)) ** (1.0 / p))


def cube_lp_sum(values: np.ndarray, cube_idx: np.ndarray, p: float) -> float:
    """Plain (sum_Q |f|^p)^(1/p)."""
    mags = site_magnitudes(values[cube_idx])
    return float((mags ** p).sum() ** (1.0 / p))


def weak_norm(values: np.ndarray, p: float) -> float:
    """sup over levels t of t * |{ |f| >= t }|^(1/p), exact on the lattice."""
    if p < 1:
        raise LatticeError(f"weak norm requires p >= 1, got {p}")
    mags = np.sort(site_magnitudes(values))[::-1]
    counts = np.arange(1, mags.size + 1, dtype=np.float64)
    return float((mags * counts ** (1.0 / p)).max(initial=0.0))


def weak_norm_cube(values: np.ndarray, cube_idx: np.ndarray, p: float) -> float:
    """Cube-normalized weak norm, carrying the |Q|^(-1/p) factor."""
    if p < 1:
        raise LatticeError(f"weak norm requires p >= 1, got {p}")
    sub = values[cube_idx]
    return weak_norm(sub, p) / cube_idx.size ** (1.0 / p)


# ---------------------------------------------------------------------------
# maximal / sharp / BMO over the full axis-cube family


def _window_reduce(ext: np.ndarray, d: int, l: int, count: int, op) -> np.ndarray:
    """Reduce with ``op`` over the l windows of length ``count`` along each
    of the first d axes, one axis at a time, in offset order."""
    windows = cube_windows(1, l, count)
    for ax in range(d):
        lead = (slice(None),) * ax
        acc = ext[lead + windows[0]].copy()
        for w in windows[1:]:
            op(acc, ext[lead + w], out=acc)
        ext = acc
    return ext


def _family_sup(grid: np.ndarray, sides, wrap: bool, sharp: bool) -> np.ndarray:
    """Per site of a (n,)*d + (m,) field grid, the sup of a cube statistic
    over the cubes of the given sides that contain the site.

    The statistic is the mean of |f|, or with ``sharp`` the mean oscillation
    (1/|Q|) sum_Q |f - f_Q| about the componentwise mean f_Q.  With ``wrap``
    the cubes wrap around the grid, one anchor per site; otherwise they stay
    inside it, n - l + 1 anchors per axis.  Anchor statistics are spread to
    the sites of their cube by a running max over the anchor grid padded by
    l - 1: periodically on the low side, or with zeros on both sides (every
    statistic is nonnegative).
    """
    def magnitudes(x):
        return np.sqrt((x ** 2).sum(axis=-1))

    d = grid.ndim - 1
    n = grid.shape[0]
    if not sharp:
        grid = magnitudes(grid)[..., None]
    best = np.zeros(grid.shape[:d])
    for l in sides:
        ext = np.pad(grid, [(0, l - 1)] * d + [(0, 0)], mode="wrap") if wrap else grid
        count = ext.shape[0] - l + 1
        means = _window_reduce(ext, d, l, count, np.add) / l ** d
        if sharp:
            vals = sum(magnitudes(ext[w] - means)
                       for w in cube_windows(d, l, count)) / l ** d
        else:
            vals = means[..., 0]
        if wrap:
            vals = np.pad(vals, [(l - 1, 0)] * d, mode="wrap")
        else:
            vals = np.pad(vals, l - 1)
        np.maximum(best, _window_reduce(vals, d, l, n, np.maximum), out=best)
    return best


def default_max_side(torus: LatticeTorus) -> int:
    return max(1, torus.side // 2)


def maximal_values(phi: LatticeField, max_side: int | None = None) -> np.ndarray:
    """(sites,) sup of cube means of |phi| over all axis cubes containing x.

    Single sites always count as cubes of the family.
    """
    t = phi.torus
    max_side = default_max_side(t) if max_side is None else max_side
    best = _family_sup(t.to_grid(phi.values), range(1, max(max_side, 1) + 1),
                       wrap=True, sharp=False)
    return t.to_flat(best).ravel()


def sharp_values(phi: LatticeField, max_side: int | None = None) -> np.ndarray:
    """(sites,) mean-oscillation sharp function over the same cube family.

    Oscillation uses the componentwise cube mean: (1/|Q|) sum_Q |f - f_Q|.
    """
    t = phi.torus
    max_side = default_max_side(t) if max_side is None else max_side
    best = _family_sup(t.to_grid(phi.values), range(1, max_side + 1),
                       wrap=True, sharp=True)
    return t.to_flat(best).ravel()


def bmo_norm(phi: LatticeField) -> float:
    return float(sharp_values(phi).max())


def _in_cube(phi: LatticeField, cube: Cube, sharp: bool) -> np.ndarray:
    """The subcube family of one cube; (cube sites,) in cube order."""
    t = phi.torus
    lq = cube.side_length
    local = phi.values[cube_sites(t, cube.anchor, lq)].reshape((lq,) * t.d + (t.m,))
    return _family_sup(local, range(1, lq + 1), wrap=False, sharp=sharp).ravel()


def maximal_values_in_cube(phi: LatticeField, cube: Cube) -> np.ndarray:
    """Maximal function over subcubes of one cube; (cube sites,) in cube order."""
    return _in_cube(phi, cube, sharp=False)


def sharp_values_in_cube(phi: LatticeField, cube: Cube) -> np.ndarray:
    """Sharp function over subcubes of one cube; (cube sites,) in cube order."""
    return _in_cube(phi, cube, sharp=True)


# ---------------------------------------------------------------------------
# iterated gradients on cubes


def iterated_gradient(t: LatticeTorus, values: np.ndarray, order: int) -> np.ndarray:
    """All mixed forward differences of the given order: (sites, m * d**order)."""
    out = values.reshape(t.sites, -1)
    for _ in range(order):
        out = np.concatenate(
            [forward_diff_raw(t, out, j) for j in range(t.d)], axis=1
        )
    return out


def _grad_sup(t: LatticeTorus, values: np.ndarray, order: int) -> np.ndarray:
    """Per-site magnitude of the order-th iterated gradient."""
    return site_magnitudes(iterated_gradient(t, values, order))


# ---------------------------------------------------------------------------
# Sobolev embeddings on cubes


def _conjugate_exponent(p: float, d: int, order: int = 1) -> float:
    denom = 1.0 / p - order / d
    return math.inf if denom <= 0 else 1.0 / denom


def sobolev_check(
    phi: LatticeField,
    case: str,
    cube: Cube,
    p: float | None = None,
    q: float | None = None,
    order: int | None = None,
) -> NormReport:
    """One of the four discrete Sobolev-type embeddings on a cube.

    Norms are plain lattice sums over the cube (no volume normalization) with
    the edge-scaling prefactors of the displayed inequalities; ``n`` is the
    cube edge (sites per axis minus one).
    """
    t = phi.torus
    d = t.d
    idx = cube_sites(t, cube.anchor, cube.side_length)
    n = cube.side_length - 1
    if n < 1:
        raise LatticeError("sobolev check needs a cube with at least 2 sites per axis")
    vals = phi.values

    if case == "i":
        if p is None or q is None:
            raise LatticeError("case i needs p and q")
        if not 1 <= p <= d:
            raise LatticeError(f"case i needs 1 <= p <= d, got p={p}")
        pstar = _conjugate_exponent(p, d)
        if q > pstar or math.isinf(q):
            raise LatticeError(f"case i needs q <= p* = {pstar}, got q={q}")
        lhs = n ** (-d / q) * cube_lp_sum(vals, idx, q)
        grad = gradient_stack_raw(t, vals)
        rhs = (n ** (-d / 2) * cube_lp_sum(vals, idx, 2)
               + n ** (1 - d / p) * cube_lp_sum(grad, idx, p))
        key = "sobolev_i"
    elif case == "ii":
        if p is None:
            raise LatticeError("case ii needs p")
        if p <= d:
            raise LatticeError(f"case ii needs p > d, got p={p}")
        sub = vals[idx]
        diff = sub[:, None, :] - sub[None, :, :]  # all pairs in the cube
        lhs = float(np.sqrt((diff ** 2).sum(axis=-1)).max())
        grad = gradient_stack_raw(t, vals)
        rhs = n ** (1 - d / p) * cube_lp_sum(grad, idx, p)
        key = "sobolev_ii"
    elif case == "iii":
        if p is None or q is None or order is None:
            raise LatticeError("case iii needs p, q, and order")
        if not 1 <= p <= d / order:
            raise LatticeError(f"case iii needs 1 <= p <= d/order, got p={p}")
        pm = _conjugate_exponent(p, d, order)
        if q > pm or math.isinf(q):
            raise LatticeError(f"case iii needs q <= {pm}, got q={q}")
        lhs = n ** (-d / q) * cube_lp_sum(vals, idx, q)
        rhs = n ** (-d / 2) * sum(
            n ** k * cube_lp_sum(iterated_gradient(t, vals, k), idx, 2)
            for k in range(order)
        ) + n ** (-d / p) * n ** order * cube_lp_sum(
            iterated_gradient(t, vals, order), idx, p
        )
        key = "sobolev_iii"
    elif case == "iv":
        M = (d + 2) // 2
        lhs = float(site_magnitudes(vals[idx]).max())
        rhs = n ** (-d / 2) * sum(
            n ** k * cube_lp_sum(iterated_gradient(t, vals, k), idx, 2)
            for k in range(M + 1)
        )
        key = "sobolev_iv"
    else:
        raise LatticeError(f"unknown sobolev case {case!r}")

    return NormReport(
        check=key,
        params={"d": d, "edge": n, "p": p, "q": q, "order": order},
        lhs=lhs,
        rhs=rhs,
        constant=SWEPT_CONSTANTS[key],
    )


# ---------------------------------------------------------------------------
# harmonic test functions and interior estimates


def require_harmonic(op: EllipticOperator, u: LatticeField,
                     cube_idx: np.ndarray) -> None:
    res = site_magnitudes(op.apply_raw(u.values)[cube_idx]).max(initial=0.0)
    scale = op.c1 * 4 * op.torus.d * max(site_magnitudes(u.values).max(), 1e-300)
    if res > HARMONIC_RTOL * scale:
        raise NotHarmonicError(
            f"residual {res:.3e} on the cube exceeds {HARMONIC_RTOL:.1e} * {scale:.3e}"
        )


def harmonic_extension(op: EllipticOperator, cube: Cube,
                       phi: LatticeField) -> LatticeField:
    """Field that agrees with phi outside the cube and is harmonic inside it."""
    return CubeProjector(op, cube).complement(phi)


def green_pair_difference(op: EllipticOperator, y1, y2) -> LatticeField:
    """Difference of two Green slices: harmonic away from the two sources.

    The uniform backgrounds of the two kernel equations cancel, so this is a
    genuinely harmonic field outside {y1, y2}.
    """
    t = op.torus
    rhs = np.zeros((t.sites, t.m))
    rhs[t.site(y1), 0] += 1.0
    rhs[t.site(y2), 0] -= 1.0
    u, _ = op.solve_green_raw(rhs)
    return LatticeField(t, u, True)


def caccioppoli_check(
    op: EllipticOperator,
    u: LatticeField,
    cube_outer: Cube,
    cube_inner: Cube,
) -> NormReport:
    """Interior gradient bound for a field harmonic on the outer cube.

    Asserts
        sum_{inner} |grad u|^2 <= 2 * c0^4 / (M - m)^2 * sum_{outer} |u - lam|^2
    with c0 the ellipticity lower bound, M, m the cube edges and lam the
    outer-cube mean.  The slack is fixed at 2, which covers the discrete
    cutoff in the stated constant.
    """
    t = op.torus
    if cube_inner.side_length >= cube_outer.side_length:
        raise LatticeError("inner cube must be strictly smaller")
    outer_idx = cube_sites(t, cube_outer.anchor, cube_outer.side_length)
    inner_idx = cube_sites(t, cube_inner.anchor, cube_inner.side_length)
    if not np.isin(inner_idx, outer_idx).all():
        raise LatticeError("inner cube is not contained in the outer cube")
    require_harmonic(op, u, outer_idx)
    lam = u.values[outer_idx].mean(axis=0)
    grad = gradient_stack_raw(t, u.values)
    lhs = float((site_magnitudes(grad[inner_idx]) ** 2).sum())
    osc = float((site_magnitudes(u.values[outer_idx] - lam) ** 2).sum())
    gap = cube_outer.side_length - cube_inner.side_length
    rhs = op.c0 ** 4 / gap ** 2 * osc
    return NormReport(
        check="caccioppoli",
        params={
            "d": t.d,
            "outer": cube_outer.side_length,
            "inner": cube_inner.side_length,
            "c0": op.c0,
        },
        lhs=lhs,
        rhs=rhs,
        constant=2.0,
    )


def decay_estimate_check(
    op: EllipticOperator,
    u: LatticeField,
    cube_outer: Cube,
    cube_inner: Cube,
) -> tuple[NormReport, NormReport]:
    """Mass and oscillation decay of a harmonic field on nested cubes.

    Checks sum_{inner} |u|^2 against (m/M)^d of the outer mass and the inner
    oscillation against (m/M)^(d+2) of the outer oscillation, with swept
    constants; edges must satisfy 2m <= M.
    """
    t = op.torus
    eM = cube_outer.side_length - 1
    em = cube_inner.side_length - 1
    if 2 * em > eM:
        raise LatticeError(f"edges must satisfy 2m <= M, got m={em}, M={eM}")
    outer_idx = cube_sites(t, cube_outer.anchor, cube_outer.side_length)
    inner_idx = cube_sites(t, cube_inner.anchor, cube_inner.side_length)
    if not np.isin(inner_idx, outer_idx).all():
        raise LatticeError("inner cube is not contained in the outer cube")
    require_harmonic(op, u, outer_idx)
    ratio = em / eM
    mass_in = float((site_magnitudes(u.values[inner_idx]) ** 2).sum())
    mass_out = float((site_magnitudes(u.values[outer_idx]) ** 2).sum())
    osc_in = float(
        (site_magnitudes(u.values[inner_idx]
                         - u.values[inner_idx].mean(axis=0)) ** 2).sum()
    )
    osc_out = float(
        (site_magnitudes(u.values[outer_idx]
                         - u.values[outer_idx].mean(axis=0)) ** 2).sum()
    )
    params = {"d": t.d, "outer": cube_outer.side_length,
              "inner": cube_inner.side_length}
    mass = NormReport("decay_mass", params, mass_in,
                      ratio ** t.d * mass_out, SWEPT_CONSTANTS["decay_mass"])
    osc = NormReport("decay_osc", params, osc_in,
                     ratio ** (t.d + 2) * osc_out, SWEPT_CONSTANTS["decay_osc"])
    return mass, osc


# ---------------------------------------------------------------------------
# maximal-function theorems


def hardy_littlewood_check(phi: LatticeField) -> NormReport:
    """Strong-type (2, 2) bound of the maximal function against the field norm.

    The constant was swept at p = 2, so p is fixed there.
    """
    p = 2.0
    mvals = maximal_values(phi)
    lhs = float((mvals ** p).sum() ** (1 / p))
    rhs = float((site_magnitudes(phi.values) ** p).sum() ** (1 / p))
    return NormReport("hardy_littlewood", {"p": p, "d": phi.torus.d},
                      lhs, rhs, SWEPT_CONSTANTS["hardy_littlewood_p2"])


def fefferman_stein_check(phi: LatticeField,
                          cube: Cube) -> tuple[NormReport, NormReport]:
    """Two-sided comparability of maximal and sharp L^2 norms for cube-mean-zero
    data; the constants were swept at p = 2, so p is fixed there."""
    p = 2.0
    t = phi.torus
    idx = cube_sites(t, cube.anchor, cube.side_length)
    centered = phi.values.copy()
    centered[idx] -= phi.values[idx].mean(axis=0)
    f = LatticeField(t, centered)
    mvals = maximal_values_in_cube(f, cube)
    svals = sharp_values_in_cube(f, cube)
    m_norm = float((np.mean(mvals ** p)) ** (1 / p))
    s_norm = float((np.mean(svals ** p)) ** (1 / p))
    params = {"p": p, "d": t.d, "cube": cube.side_length}
    fwd = NormReport("fefferman_stein_fwd", params, m_norm, s_norm,
                     SWEPT_CONSTANTS["fefferman_stein_fwd"])
    rev = NormReport("fefferman_stein_rev", params, s_norm, m_norm,
                     SWEPT_CONSTANTS["fefferman_stein_rev"])
    return fwd, rev


def weak_vs_strong_check(phi: LatticeField, p: float) -> NormReport:
    """Chebyshev comparison, exact with constant 1 on the finite lattice."""
    lhs = weak_norm(phi.values, p)
    rhs = float((site_magnitudes(phi.values) ** p).sum() ** (1 / p))
    return NormReport("weak_le_strong", {"p": p}, lhs, rhs, 1.0)


def kernel_majorant_report(torus: LatticeTorus, x0=0) -> NormReport:
    """Weak norm of the distance majorant dist^(2-d); bounded, reported only."""
    if torus.d < 3:
        raise LatticeError("kernel majorant needs d >= 3")
    dist = distances_from(torus, torus.coords_of(torus.site(x0)))
    vals = np.maximum(dist, 1).astype(np.float64) ** (2 - torus.d)
    p = torus.d / (torus.d - 2)
    wn = weak_norm(vals.reshape(-1, 1), p)
    return NormReport(
        "kernel_majorant_weak_norm",
        {"d": torus.d, "p": round(p, 6)},
        wn,
        1.0,
        constant=float(2 ** torus.d),
        asserted=False,
    )


# ---------------------------------------------------------------------------
# cube Dirichlet problems: global estimate, weak interpolation, BMO report


def global_estimate_check(
    op: EllipticOperator,
    cube: Cube,
    fmat: np.ndarray,
    g: np.ndarray,
    p: float,
    q: float,
) -> NormReport:
    """Solvability estimate on a cube: grad of the solution against the data.

    Solves the cube Dirichlet problem with source div f + g and checks the
    normalized cube norm of the gradient with s = min(p, dq/(d-q)).
    """
    t = op.torus
    if not 1 < q < t.d:
        raise LatticeError(f"need 1 < q < d, got q={q}")
    if p <= 1:
        raise LatticeError(f"need p > 1, got p={p}")
    qstar = _conjugate_exponent(q, t.d)
    s = min(p, qstar)
    rhs = divergence_star_raw(t, fmat) + g
    u = CubeProjector(op, cube).dirichlet_solve_raw(rhs)
    idx = cube_sites(t, cube.anchor, cube.side_length)
    grad = gradient_stack_raw(t, u)
    lhs = cube_norm(grad, idx, s)
    rhs_val = cube_norm(fmat, idx, p) + cube_norm(g, idx, q)
    return NormReport(
        "global_estimate",
        {"d": t.d, "cube": cube.side_length, "p": p, "q": q, "s": round(s, 6)},
        lhs,
        rhs_val,
        SWEPT_CONSTANTS["global_estimate"],
    )


def weak_interpolation_check(
    op: EllipticOperator,
    cube: Cube,
    fmat: np.ndarray,
) -> NormReport:
    """Weak-norm bound for the cube solution operator f -> grad u.

    The operator is the concrete composition used by the global estimate
    (Dirichlet solve of div f on the cube); interpolation predicts a weak
    (2, 2) bound between its strong-type endpoints.
    """
    p = q = 2.0
    t = op.torus
    u = CubeProjector(op, cube).dirichlet_solve_raw(divergence_star_raw(t, fmat))
    idx = cube_sites(t, cube.anchor, cube.side_length)
    grad = gradient_stack_raw(t, u)
    lhs = weak_norm_cube(grad, idx, q)
    rhs = weak_norm_cube(fmat, idx, p)
    return NormReport(
        "weak_interpolation",
        {"d": t.d, "cube": cube.side_length, "p": p, "q": q},
        lhs,
        rhs,
        SWEPT_CONSTANTS["weak_interpolation"],
    )


def bmo_gradient_report(op: EllipticOperator, cube: Cube,
                        fmat: np.ndarray) -> NormReport:
    """BMO norm of grad u against sup |f| for the cube problem; reported only."""
    t = op.torus
    u = CubeProjector(op, cube).dirichlet_solve_raw(divergence_star_raw(t, fmat))
    mag = site_magnitudes(gradient_stack_raw(t, u)).reshape(t.sites, 1)
    tmp = LatticeField(LatticeTorus(t.d, 1, t.L, t.N), mag)
    lhs = bmo_norm(tmp)
    rhs = float(site_magnitudes(fmat).max())
    return NormReport(
        "bmo_gradient",
        {"d": t.d, "cube": cube.side_length},
        lhs,
        rhs,
        constant=math.inf,
        asserted=False,
    )


# ---------------------------------------------------------------------------
# Green decay and iterated projection bounds


def cube_depth(torus: LatticeTorus, cube: Cube) -> np.ndarray:
    """(sites,) sup-distance to the cube complement; zero outside the cube."""
    coords = torus.all_coords()
    rel = (coords - torus.wrap(cube.anchor)[None, :]) % torus.side
    inside = (rel < cube.side_length).all(axis=1)
    exit_dist = np.minimum(rel + 1, cube.side_length - rel).min(axis=1)
    return np.where(inside, exit_dist, 0)


def green_decay_check(column: KernelColumn, j: int = 0) -> NormReport:
    """Boundedness of |grad^j K| * dist^(d-2+j) away from the source.

    Taken over sup-distances 1 to (side - 1) // 2 and reported with the
    observed constant, never asserted.
    """
    t = column.torus
    if t.d < 3:
        raise LatticeError("green decay check needs d >= 3")
    dist = distances_from(t, t.coords_of(column.source))
    vals = _grad_sup(t, column.values.reshape(t.sites, -1), j)
    lim = (t.side - 1) // 2
    mask = (dist >= 1) & (dist <= lim)
    prod = vals[mask] * dist[mask].astype(np.float64) ** (t.d - 2 + j)
    return NormReport(
        "green_decay",
        {"d": t.d, "j": j, "max_dist": lim, "source": column.source},
        float(prod.max()),
        1.0,
        constant=float(prod.max()),
        asserted=False,
        extra={"bound_constant": float(prod.max())},
    )


def projection_bound_check(
    op: EllipticOperator,
    cubes: list[Cube],
    x0,
    j: int = 0,
) -> NormReport:
    """Sup bound for iterated cube-complement projections of a Green slice.

    Builds u by applying the complement projector of each cube in turn to the
    Green slice at x0 and checks, pointwise away from the source,
        |grad^j u(y)| <= C * 2^k * max(dist(x0,y), depth(y, Q_1), ...)^(2-d+j)
    where depth is the sup-distance to each cube complement.  The distance
    floor is one lattice spacing.
    """
    t = op.torus
    if t.d < 3:
        raise LatticeError("projection bound needs d >= 3")
    source = t.site(x0)
    col = op.green_column(source)
    u = col.values[:, :, 0]
    for cube in cubes:
        proj = CubeProjector(op, cube)
        u = u - proj.project_raw(u)
    dist = distances_from(t, t.coords_of(source)).astype(np.float64)
    envelope = np.maximum(dist, 1.0)
    for cube in cubes:
        envelope = np.maximum(envelope, cube_depth(t, cube))
    lhs_vals = _grad_sup(t, u, j)
    rhs_vals = envelope ** (2 - t.d + j)
    mask = np.ones(t.sites, dtype=bool)
    mask[source] = False
    ratio = float((lhs_vals[mask] / rhs_vals[mask]).max())
    return NormReport(
        "projection_bound",
        {"d": t.d, "k": len(cubes), "j": j,
         "cubes": [c.side_length for c in cubes]},
        ratio,
        float(2 ** len(cubes)),
        SWEPT_CONSTANTS["projection_bound"],
        extra={"observed_over_envelope": ratio},
    )


# ---------------------------------------------------------------------------
# per-level kernel decay


def level_decay_report(
    dec,
    sources,
    alpha_orders=(0, 1),
    slope_slack: float = 1.0,
) -> DecayReport:
    """Tabulate per-level sup of differenced kernel deviations and fit slopes.

    For each level the far-region mean block is subtracted before taking
    suprema (zero block when the far region is empty).  Slopes are fitted over
    the levels carrying a range claim; with fewer than two such levels the
    report is not asserted.  The fitted prefactor ``C * L^eta`` is recorded,
    never asserted.
    """
    t = dec.op.torus
    L = t.L
    depth = dec.plan.depth
    levels = tuple(range(1, dec.plan.levels + 1))
    maxima: dict[int, list[float]] = {a: [] for a in alpha_orders}
    for k in levels:
        worst = {a: 0.0 for a in alpha_orders}
        for s in sources:
            src = t.site(s)
            col = dec.kernels.get((k, src)) or dec.level_kernel_column(k, src)
            stats = dec.far_field_stats(k, src)
            C = np.asarray(stats["constant_block"])
            devi = col.values - C[None, :, :]
            flat = devi.reshape(t.sites, -1)
            for a in alpha_orders:
                for alpha in product(range(a + 1), repeat=t.d):
                    if sum(alpha) == a:
                        diff = grad_multi_raw(t, flat, alpha)
                        worst[a] = max(worst[a], float(site_magnitudes(diff).max()))
        for a in alpha_orders:
            maxima[a].append(worst[a])

    claimed = list(range(1, depth + 1))
    asserted = len(claimed) >= 2 and t.d >= 3
    slopes: dict[int, dict] = {}
    prefactors: dict[int, float] = {}
    for a in alpha_orders:
        vals = np.array(maxima[a])
        ks = np.arange(len(levels), dtype=np.float64)  # k - 1
        logs = np.log(np.maximum(vals, 1e-300)) / np.log(L)
        full = np.polyfit(ks, logs, 1) if len(levels) >= 2 else (np.nan, logs[0])
        cl = np.polyfit(ks[: len(claimed)], logs[: len(claimed)], 1) \
            if len(claimed) >= 2 else (np.nan, np.nan)
        slopes[a] = {
            "claimed_fit": float(cl[0]),
            "full_fit": float(full[0]),
            "target": -(t.d - 2 + a) + slope_slack,
        }
        prefactors[a] = float(L ** full[1]) if len(levels) >= 2 else float(vals[0])
    return DecayReport(
        base_scale=L,
        levels=levels,
        maxima={a: list(v) for a, v in maxima.items()},
        slopes=slopes,
        prefactors=prefactors,
        asserted=asserted,
        extra={"claimed_levels": claimed, "slope_slack": slope_slack,
               "sources": [t.site(s) for s in sources]},
    )
