import numpy as np
import pytest

from frdkit import (
    AveragingOperator,
    Cube,
    CubeProjector,
    LatticeField,
    LatticeTorus,
    cube_sites,
    dense_green,
    project_cube,
)
from frdkit.lattice import cube_offsets, distances_from
from frdkit.operators import dense_matrix
from frdkit import (CoefficientField, EllipticOperator, PerturbationSpec, TrigMode,
                    make_perturbed, smoothing)
from frdkit.smoothing import _coefficient_periods, _local_matrices
from conftest import (identity_operator, perturbed_operator, random_mean_zero,
                      random_operator)


class TestCubeProjection:
    def test_vanishes_outside(self, op_d2_pert):
        t = op_d2_pert.torus
        phi = random_mean_zero(op_d2_pert, 1)
        cube = Cube((1, 2), 4)
        proj = project_cube(op_d2_pert, cube, phi)
        inside = cube_sites(t, cube.anchor, cube.side_length)
        outside = np.setdiff1d(np.arange(t.sites), inside)
        assert np.abs(proj.values[outside]).max() == 0.0

    def test_galerkin_orthogonality(self, op_d2_pert):
        # residual form vanishes against a spanning set of bumps in the cube
        t = op_d2_pert.torus
        phi = random_mean_zero(op_d2_pert, 2)
        cube = Cube((0, 0), 3)
        proj = project_cube(op_d2_pert, cube, phi)
        resid = phi - proj
        for site in cube_sites(t, cube.anchor, cube.side_length):
            bump = np.zeros((t.sites, 1))
            bump[site, 0] = 1.0
            val = op_d2_pert.dirichlet_form(resid, LatticeField(t, bump))
            assert abs(val) <= 1e-10 * phi.norm()

    def test_idempotence(self, op_d2_pert):
        phi = random_mean_zero(op_d2_pert, 3)
        projector = CubeProjector(op_d2_pert, Cube((2, 2), 4))
        once = projector.project(phi)
        twice = projector.project(once)
        assert np.abs(once.values - twice.values).max() <= 1e-11 * phi.norm()

    def test_harmonic_input_projects_to_zero(self, op_d2_pert):
        # the key vanishing property: fields harmonic on the cube are killed
        projector = CubeProjector(op_d2_pert, Cube((1, 1), 3))
        phi = random_mean_zero(op_d2_pert, 4)
        harmonic = projector.complement(phi)  # harmonic inside the cube
        again = projector.project(harmonic)
        assert np.abs(again.values).max() <= 1e-11 * max(phi.norm(), 1.0)

    def test_whole_torus_is_mean_projection(self, op_d2_pert):
        t = op_d2_pert.torus
        rng = np.random.default_rng(5)
        phi = LatticeField(t, rng.standard_normal((t.sites, 1)))
        proj = project_cube(op_d2_pert, Cube((0, 0), t.side), phi)
        np.testing.assert_allclose(proj.values,
                                   phi.values - phi.values.mean(axis=0),
                                   atol=1e-14)

    def test_whole_torus_matches_dense_solve(self):
        # the global Dirichlet problem on a side-5 torus, via the dense oracle
        op = perturbed_operator(2, L=5, N=1)
        t = op.torus
        phi = random_mean_zero(op, 6)
        proj = project_cube(op, Cube((0, 0), t.side), phi)
        G = dense_green(op)
        expected = G @ op.apply_raw(phi.values).reshape(-1)
        np.testing.assert_allclose(proj.values.reshape(-1), expected, atol=1e-10)

    def test_energy_contraction(self, op_d2_pert):
        phi = random_mean_zero(op_d2_pert, 7)
        proj = project_cube(op_d2_pert, Cube((3, 0), 5), phi)
        e_proj = op_d2_pert.dirichlet_form(proj, proj)
        e_phi = op_d2_pert.dirichlet_form(phi, phi)
        assert e_proj <= e_phi * (1 + 1e-12)


class TestAveraging:
    def test_zero_maps_to_zero(self, op_d2_pert):
        av = AveragingOperator(op_d2_pert, 3)
        t = op_d2_pert.torus
        out = av.smooth(LatticeField.zeros(t))
        assert out.norm() == 0.0

    def test_smooth_plus_fluctuation(self, op_d2_pert):
        av = AveragingOperator(op_d2_pert, 3)
        phi = random_mean_zero(op_d2_pert, 8)
        total = av.smooth(phi) + av.fluctuation(phi)
        np.testing.assert_allclose(total.values, phi.values, atol=1e-14)

    def test_energy_window(self, op_d2_pert):
        # The averaged projection is positive in the energy form.  On the
        # lattice it is NOT a contraction: cubes overlapping the one-site
        # stencil ring of a bump over-collect energy, so its energy norm
        # exceeds one by an O(1/side) discreteness factor (measured ~1.22 at
        # cube side 3).  The decomposition only needs the spectrum within
        # [0, 2], which keeps every complement a strict energy contraction.
        av = AveragingOperator(op_d2_pert, 3)
        for seed in range(5):
            phi = random_mean_zero(op_d2_pert, 100 + seed)
            val = op_d2_pert.dirichlet_form(av.smooth(phi), phi)
            upper = op_d2_pert.dirichlet_form(phi, phi)
            assert -1e-10 * upper <= val <= 2 * upper * (1 - 1e-6)

    def test_complement_strict_energy_contraction(self, op_d2_pert):
        # equivalent statement actually used by level positivity
        for l in (1, 3):
            av = AveragingOperator(op_d2_pert, l)
            for seed in range(5):
                phi = random_mean_zero(op_d2_pert, 200 + seed)
                out = av.fluctuation(phi)
                e_out = op_d2_pert.dirichlet_form(out, out)
                e_in = op_d2_pert.dirichlet_form(phi, phi)
                assert e_out <= e_in * (1 + 1e-12)

    def test_fourier_mode_scaling_constant_A(self, op_d2_const):
        # constant coefficients commute with translations, so a single mode
        # maps to itself scaled; the factor lies in [0, 1]
        t = op_d2_const.torus
        av = AveragingOperator(op_d2_const, 3)
        coords = t.all_coords()
        for wave in [(1, 0), (2, 1)]:
            mode = np.cos(2 * np.pi * coords @ np.array(wave) / t.side)
            phi = mode.reshape(t.sites, 1)
            out = av.smooth_raw(phi)
            scale = float(np.vdot(out, phi) / np.vdot(phi, phi))
            assert 0.0 <= scale <= 1.0
            np.testing.assert_allclose(out, scale * phi, atol=1e-10)

    def test_whole_torus_degenerate(self, op_d2_pert):
        t = op_d2_pert.torus
        av = AveragingOperator(op_d2_pert, t.side)
        phi = random_mean_zero(op_d2_pert, 9)
        assert av.fluctuation(phi).norm() <= 1e-12 * phi.norm()

    def test_locality_of_smoothing(self, op_d3_pert):
        # a point bump can only influence sites within one cube diameter
        t = op_d3_pert.torus
        l = 3
        av = AveragingOperator(op_d3_pert, l)
        bump = np.zeros((t.sites, 1))
        bump[t.index_of((4, 4, 4)), 0] = 1.0
        out = av.smooth_raw(bump)
        dist = distances_from(t, (4, 4, 4))
        assert np.abs(out[dist > l]).max() == 0.0

    def test_single_site_cubes_are_jacobi(self, op_d2_pert):
        # side-1 cubes reduce the average to a block-Jacobi sweep
        av = AveragingOperator(op_d2_pert, 1)
        phi = random_mean_zero(op_d2_pert, 10)
        image = op_d2_pert.apply_raw(phi.values)
        expected = np.einsum("sab,sb->sa", jacobi_blocks_inv(op_d2_pert), image)
        np.testing.assert_allclose(av.smooth_raw(phi.values), expected, atol=1e-13)


class TestDuality:
    def test_adjoint_identity(self, op_d2_pert):
        # the conjugated complement is the l2 adjoint on mean-zero fields
        rng = np.random.default_rng(11)
        t = op_d2_pert.torus
        av = AveragingOperator(op_d2_pert, 3)
        phi = random_mean_zero(op_d2_pert, 12)
        psi = LatticeField(t, rng.standard_normal((t.sites, 1)))
        lhs = float(np.vdot(av.fluctuation_dual(phi).values, psi.values))
        rhs = float(np.vdot(phi.values, av.fluctuation(psi).values))
        assert abs(lhs - rhs) <= 2e-10 * phi.norm() * psi.norm()

    def test_solve_commutation(self, op_d2_pert):
        # solving after the dual complement equals the complement of the
        # solve, modulo the constant-field representative
        av = AveragingOperator(op_d2_pert, 3)
        phi = random_mean_zero(op_d2_pert, 13)
        lhs, _ = op_d2_pert.solve_green_raw(av.fluctuation_dual(phi).values)
        solved, _ = op_d2_pert.solve_green_raw(phi.values)
        rhs = av.fluctuation_raw(solved)
        rhs = rhs - rhs.mean(axis=0)
        np.testing.assert_allclose(lhs, rhs, atol=4e-10 * phi.norm())

    def test_dual_of_zero(self, op_d2_pert):
        t = op_d2_pert.torus
        av = AveragingOperator(op_d2_pert, 3)
        assert av.fluctuation_dual(LatticeField.zeros(t)).norm() == 0.0

    def test_transpose_matches_dense(self, op_d2_pert):
        # smooth_transpose is the matrix transpose of smooth
        t = op_d2_pert.torus
        av = AveragingOperator(op_d2_pert, 3)
        n = t.sites
        T = np.zeros((n, n))
        TT = np.zeros((n, n))
        for j in range(n):
            e = np.zeros((n, 1))
            e[j, 0] = 1.0
            T[:, j] = av.smooth_raw(e).ravel()
            TT[:, j] = av.smooth_transpose_raw(e).ravel()
        np.testing.assert_allclose(TT, T.T, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_translate_site_indices_match_coordinate_formula(d):
    """Local matrices are the dense operator on the (T, n) coordinate-formula sites.

    The translate index table of ``_local_matrices`` picks which sites'
    coefficients fill each local matrix; a random coefficient makes any
    wrong entry of it show.
    """
    op = random_operator(d, 3, 2 if d < 3 else 1, seed=d)
    torus = op.torus
    side_length = 2
    anchors = np.arange(torus.sites, dtype=np.int64)[::2]
    coords = torus.all_coords()[anchors]
    offs = cube_offsets(d, side_length)
    pos = (coords[:, None, :] + offs[None, :, :]) % torus.side
    expected = np.zeros(pos.shape[:2], dtype=np.int64)
    for j in range(d):
        expected = expected * torus.side + pos[:, :, j]
    got = _local_matrices(op, side_length, anchors)
    dense = dense_matrix(op)
    assert got.shape == (anchors.size, offs.shape[0], offs.shape[0])
    for M, sites in zip(got, expected):
        np.testing.assert_allclose(M, dense[np.ix_(sites, sites)], rtol=0, atol=1e-13)


def jacobi_blocks_inv(op):
    """Inverse per-site m-by-m diagonal blocks of the operator stencil."""
    t = op.torus
    Av = op.coefficients.values.reshape(t.sites, t.m, t.d, t.m, t.d)
    D = np.einsum("sajbj->sab", Av).copy()
    for j in range(t.d):
        g = t.to_grid(Av.reshape(t.sites, -1))
        shifted = t.to_flat(np.roll(g, +1, axis=j)).reshape(t.sites, t.m, t.d, t.m, t.d)
        D += shifted[:, :, j, :, j]
    return np.linalg.inv(D)


def modes_field(torus, frequencies):
    md = torus.m * torus.d
    spec = PerturbationSpec(
        base=np.eye(md), epsilon=0.05, budget=1000.0,
        modes=tuple(TrigMode(frequency=f, amplitude=np.eye(md)) for f in frequencies))
    return make_perturbed(spec, torus)


class TestCoefficientPeriods:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_constant_is_one_everywhere(self, d):
        torus = LatticeTorus(d, 1, 3, 2 if d < 3 else 1)
        assert _coefficient_periods(CoefficientField.identity(torus)) == (1,) * d

    @pytest.mark.parametrize("d", [2, 3])
    def test_mode_along_axis_0(self, d):
        torus = LatticeTorus(d, 1, 3, 2)
        field = modes_field(torus, [(1,) + (0,) * (d - 1)])
        assert _coefficient_periods(field) == (torus.side,) + (1,) * (d - 1)

    def test_modes_along_axes_0_and_1(self):
        torus = LatticeTorus(3, 1, 3, 2)
        field = modes_field(torus, [(1, 0, 0), (0, 1, 0)])
        assert _coefficient_periods(field) == (9, 9, 1)

    def test_shorter_period_than_the_side(self):
        torus = LatticeTorus(2, 1, 3, 2)
        field = modes_field(torus, [(3, 0)])
        assert _coefficient_periods(field) == (3, 1)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_field_has_the_side_everywhere(self, d):
        op = random_operator(d, N=2 if d < 3 else 1)
        assert _coefficient_periods(op.coefficients) == (op.torus.side,) * d


def field_operator(kind, d, m):
    N = 2 if d < 3 else 1
    if kind == "constant":
        return identity_operator(d, N=N, m=m)
    if kind == "mode":
        return perturbed_operator(d, N=N, m=m)
    return random_operator(d, N=N, m=m)


@pytest.mark.parametrize("cached", [True, False], ids=["cached", "reassembled"])
@pytest.mark.parametrize("kind", ["constant", "mode", "random"])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_smoother_matches_its_definition(monkeypatch, d, m, kind, cached):
    """smooth = l^-d times the sum of the cube projections over every anchor."""
    if not cached:
        monkeypatch.setattr(smoothing, "_CACHE_BYTE_BUDGET", 0)
    op = field_operator(kind, d, m)
    t = op.torus
    f = np.random.default_rng(8).standard_normal((t.sites, t.m))
    for side_length in range(1, min(4, t.side)):
        smoother = AveragingOperator(op, side_length)
        assert smoother.cached == cached
        expected = sum(CubeProjector(op, Cube(t.coords_of(a), side_length)).project_raw(f)
                       for a in range(t.sites)) / side_length ** t.d
        got = smoother.smooth_raw(f)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def gather_of(op, side_length):
    """The same smoother forced onto the class-inverse gather."""
    smoother = AveragingOperator(op, side_length)
    smoother.symbol = False
    return smoother


class TestBlochSymbol:
    def test_choice_rule(self, monkeypatch):
        const, mode = identity_operator(2), perturbed_operator(2)
        assert [AveragingOperator(const, l).symbol for l in range(1, 9)] == [False] + [True] * 7
        assert [AveragingOperator(mode, l).symbol for l in (1, 3)] == [False, True]
        assert not any(AveragingOperator(random_operator(2), l).symbol for l in range(1, 9))
        monkeypatch.setattr(smoothing, "_CACHE_BYTE_BUDGET", 0)
        assert not any(AveragingOperator(const, l).symbol for l in range(1, 9))

    def test_holds_no_class_inverses(self, op_d2_pert):
        smoother = AveragingOperator(op_d2_pert, 3)
        smoother.smooth_raw(random_mean_zero(op_d2_pert, 1).values)
        assert smoother.symbol and smoother._inv is None

    def test_symbol_within_budget_is_not_refused(self, monkeypatch):
        # side-9 mode field, cube 5: a 11.7 kB symbol, against 45 kB of
        # inverses that one 1-byte chunk could not hold
        monkeypatch.setattr(smoothing, "_CACHE_BYTE_BUDGET", 20_000)
        monkeypatch.setattr(smoothing, "_CHUNK_BYTE_BUDGET", 1)
        op = perturbed_operator(2)
        smoother = AveragingOperator(op, 5)
        assert smoother.symbol and not smoother.cached
        f = random_mean_zero(op, 2).values
        got = smoother.smooth_raw(f)
        monkeypatch.setattr(smoothing, "_CHUNK_BYTE_BUDGET", 1 << 30)
        expected = gather_of(op, 5).smooth_raw(f)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_keeps_the_exact_zeros_of_each_column(self, op_d3_pert):
        t = op_d3_pert.torus
        block = np.zeros((t.sites, 1, 2))
        block[t.index_of((4, 4, 4)), 0, 0] = 1.0
        block[:, 0, 1] = random_mean_zero(op_d3_pert, 3).values[:, 0]
        got = AveragingOperator(op_d3_pert, 3).smooth_raw(block)
        expected = gather_of(op_d3_pert, 3).smooth_raw(block)
        np.testing.assert_array_equal(got == 0, expected == 0)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("d,m", [(2, 1), (2, 2), (3, 1)])
    def test_short_periods_match_the_gather(self, d, m):
        # periods (3, 3[, 1]) on side 9: coarse shifts and residues both
        # vary, and no reflection maps the field to itself
        torus = LatticeTorus(d, m, 3, 2)
        op = EllipticOperator(modes_field(torus, [(3, 0, 0)[:d], (0, 3, 0)[:d]]))
        f = np.random.default_rng(5).standard_normal((torus.sites, m, 2))
        for side_length in (3, 4):
            smoother = AveragingOperator(op, side_length)
            assert smoother.symbol and smoother.classes == 9
            gather = gather_of(op, side_length)
            for got, expected in [(smoother.smooth_raw(f), gather.smooth_raw(f)),
                                  (smoother.smooth_transpose_raw(f),
                                   gather.smooth_transpose_raw(f))]:
                assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_side27_cube9_column_matches_the_gather(self):
        # const-s27's geometry: d = 3, side 27, constant coefficients
        op = identity_operator(3, N=3)
        f = random_mean_zero(op, 4).values
        got = AveragingOperator(op, 9).smooth_raw(f)
        expected = gather_of(op, 9).smooth_raw(f)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
