import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frdkit import (
    CoefficientField,
    ConvergenceError,
    EllipticOperator,
    LatticeField,
    LatticeTorus,
    MeanZeroError,
    dense_green,
    dense_matrix,
)
from frdkit.lattice import distances_from
from frdkit.operators import OracleSizeError, mean_projector
from conftest import identity_operator, perturbed_operator, random_mean_zero


class TestApply:
    def test_laplacian_stencil(self):
        # identity coefficients give the 2d-point stencil: 2d at the source,
        # -1 at each axis neighbor, 0 elsewhere
        op = identity_operator(2, L=5, N=1)
        t = op.torus
        delta = np.zeros((t.sites, 1))
        delta[t.index_of((2, 2)), 0] = 1.0
        out = op.apply_raw(delta)
        assert out[t.index_of((2, 2)), 0] == pytest.approx(4.0)
        for nb in [(1, 2), (3, 2), (2, 1), (2, 3)]:
            assert out[t.index_of(nb), 0] == pytest.approx(-1.0)
        far = [i for i in range(t.sites)
               if distances_from(t, (2, 2))[i] > 1]
        assert np.abs(out[far]).max() == 0.0

    def test_constants_in_kernel(self, op_d2_pert):
        t = op_d2_pert.torus
        c = LatticeField(t, np.full((t.sites, 1), 2.5))
        assert op_d2_pert.apply(c).norm() == 0.0

    def test_output_mean_zero_any_input(self, op_d2_pert):
        rng = np.random.default_rng(3)
        t = op_d2_pert.torus
        phi = LatticeField(t, rng.standard_normal((t.sites, 1)))
        out = op_d2_pert.apply(phi)
        assert abs(out.values.sum()) <= 1e-10 * max(phi.norm(), 1.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_self_adjoint_and_coercive(self, seed):
        op = perturbed_operator(2, N=1)
        rng = np.random.default_rng(seed)
        t = op.torus
        phi = rng.standard_normal((t.sites, 1))
        psi = rng.standard_normal((t.sites, 1))
        a = float(np.vdot(op.apply_raw(phi), psi))
        b = float(np.vdot(phi, op.apply_raw(psi)))
        scale = np.linalg.norm(phi) * np.linalg.norm(psi)
        assert abs(a - b) <= 1e-10 * scale
        from frdkit.lattice import gradient_stack_raw
        grad_sq = float((gradient_stack_raw(t, phi) ** 2).sum())
        quad = float(np.vdot(op.apply_raw(phi), phi))
        assert quad >= op.c0 * grad_sq - 1e-10 * scale

    def test_torus_mismatch(self, op_d2_pert):
        other = LatticeTorus(2, 1, 3, 1)
        from frdkit.operators import TorusMismatchError
        with pytest.raises(TorusMismatchError):
            op_d2_pert.apply(LatticeField(other, np.zeros((other.sites, 1))))


class TestDirichletForm:
    def test_constant_annihilated(self, op_d2_pert):
        t = op_d2_pert.torus
        c = LatticeField(t, np.full((t.sites, 1), 1.3))
        psi = random_mean_zero(op_d2_pert, 5)
        assert op_d2_pert.dirichlet_form(c, psi) == pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_apply(self, op_d2_pert):
        rng = np.random.default_rng(11)
        t = op_d2_pert.torus
        phi = LatticeField(t, rng.standard_normal((t.sites, 1)))
        psi = LatticeField(t, rng.standard_normal((t.sites, 1)))
        a = op_d2_pert.dirichlet_form(phi, psi)
        b = float(np.vdot(op_d2_pert.apply(phi).values, psi.values))
        assert a == pytest.approx(b, rel=1e-10)

    def test_1d_direct_value(self):
        # sum of squared forward differences of (0, 1, 0) is 1 + 1 + 0 = 2
        op = identity_operator(1, L=3, N=1)
        t = op.torus
        phi = LatticeField(t, np.array([[0.0], [1.0], [0.0]]))
        assert op.dirichlet_form(phi, phi) == pytest.approx(2.0)


class TestSolve:
    def test_zero_rhs(self, op_d2_pert):
        t = op_d2_pert.torus
        u, rep = op_d2_pert.solve_green(LatticeField.zeros(t))
        assert u.norm() == 0.0
        assert rep.iterations == 0

    def test_rejects_nonzero_mean(self, op_d2_pert):
        t = op_d2_pert.torus
        f = LatticeField(t, np.ones((t.sites, 1)))
        with pytest.raises(MeanZeroError):
            op_d2_pert.solve_green(f)

    def test_round_trip(self, op_d3_pert):
        phi = random_mean_zero(op_d3_pert, 21)
        image = op_d3_pert.apply(phi)
        u, _ = op_d3_pert.solve_green(image, tol=1e-12)
        assert np.abs(u.values - phi.values).max() <= 1e-9 * phi.norm()

    def test_applied_inverse_is_identity(self, op_d2_pert):
        f = random_mean_zero(op_d2_pert, 22)
        u, _ = op_d2_pert.solve_green(f)
        back = op_d2_pert.apply(u)
        assert np.abs(back.values - f.values).max() <= 1e-9 * f.norm()

    def test_1d_against_dense_pseudo_inverse(self):
        op = identity_operator(1, L=3, N=1)
        t = op.torus
        f = np.array([[1.0], [-1.0], [0.0]])
        u, _ = op.solve_green_raw(f)
        G = dense_green(op)
        np.testing.assert_allclose(u.reshape(-1), G @ f.reshape(-1), atol=1e-11)

    def test_2d_against_dense_pseudo_inverse(self, op_d2_pert):
        f = random_mean_zero(op_d2_pert, 23)
        u, _ = op_d2_pert.solve_green(f)
        G = dense_green(op_d2_pert)
        np.testing.assert_allclose(u.values.reshape(-1),
                                   G @ f.values.reshape(-1), atol=1e-10)

    def test_nonconvergence_reported(self, op_d2_pert):
        f = random_mean_zero(op_d2_pert, 24)
        with pytest.raises(ConvergenceError) as err:
            op_d2_pert.solve_green_raw(f.values, tol=1e-10, max_iter=2)
        assert err.value.report.iterations == 2
        assert err.value.report.residual > 0


def random_spd(rng, count, md, contrast):
    """``count`` symmetric matrices with eigenvalues spread over [1, contrast]."""
    Q, _ = np.linalg.qr(rng.standard_normal((count, md, md)))
    w = np.exp(rng.uniform(0.0, np.log(contrast), size=(count, md)))
    w[:, 0], w[:, -1] = 1.0, contrast
    return np.einsum("sij,sj,skj->sik", Q, w, Q)


def dense_solution(op, f):
    G = dense_green(op)
    return (G @ f.reshape(-1, f.shape[-1])).reshape(f.shape)


class TestMeanCoefficientPreconditioner:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2])
    def test_constant_coefficients_one_step(self, d, m):
        # an anisotropic constant map that couples components and axes
        rng = np.random.default_rng(10 * d + m)
        t = LatticeTorus(d, m, 3, 2 if d < 3 else 1)
        md = m * d
        A = 2.0 * np.eye(md) + np.diag(np.arange(md)) + 0.5 * np.ones((md, md))
        op = EllipticOperator(CoefficientField.constant(t, A))
        f = rng.standard_normal((t.sites, m, 3))
        f -= f.mean(axis=0)
        for b in range(3):
            u, rep = op.solve_green_raw(f[..., b])
            assert rep.iterations == 1
        u, _ = op.solve_green_raw(f)
        ref = dense_solution(op, f)
        assert np.abs(u - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_iterations_flat_at_side_27(self):
        op = perturbed_operator(3, N=3, eps=0.05)
        t = op.torus
        f = np.zeros((t.sites, 1, 3))
        f[[0, t.sites // 2, t.index_of((5, 13, 20))], 0, [0, 1, 2]] = 1.0
        f -= f.mean(axis=0)
        for b in range(3):
            _, rep = op.solve_green_raw(f[..., b])
            assert rep.iterations <= 15

    def test_random_coefficients_against_dense(self):
        rng = np.random.default_rng(11)
        t = LatticeTorus(2, 2, 3, 2)
        A = CoefficientField(t, random_spd(rng, t.sites, t.m * t.d, 20.0))
        op = EllipticOperator(A)
        f = rng.standard_normal((t.sites, t.m, 2))
        f -= f.mean(axis=0)
        u, rep = op.solve_green_raw(f, tol=1e-13)
        ref = dense_solution(op, f)
        assert np.abs(u - ref).max() <= 1e-9 * np.abs(ref).max()

    def test_symbol_zero_frequency_and_shape(self):
        op = perturbed_operator(2, N=2, m=2)
        t = op.torus
        S = op.mean_symbol_inv()
        assert S.shape == (t.side, t.side // 2 + 1, 2, 2)
        assert np.all(S[0, 0] == 0.0)


class TestGreenColumn:
    def test_columns_mean_zero(self, op_d2_pert):
        col = op_d2_pert.green_column(0)
        sums = col.values.sum(axis=0)
        assert np.abs(sums).max() <= 1e-9

    def test_translation_invariance_constant_A(self, op_d2_const):
        t = op_d2_const.torus
        tol = 1e-10
        c0 = op_d2_const.green_column(0, tol)
        shift = (2, 5)
        c1 = op_d2_const.green_column(t.index_of(shift), tol)
        rolled = t.to_grid(c0.values.reshape(t.sites, -1))
        rolled = np.roll(rolled, shift, axis=(0, 1))
        np.testing.assert_allclose(
            t.to_flat(rolled), c1.values.reshape(t.sites, -1), atol=2 * tol
        )

    def test_kernel_symmetry(self, op_d2_pert):
        tol = 1e-10
        x, y = 4, 37
        cx = op_d2_pert.green_column(x, tol)
        cy = op_d2_pert.green_column(y, tol)
        np.testing.assert_allclose(cx.values[y], cy.values[x].T, atol=2 * tol)

    def test_decay_along_ray_d3(self, op_d3_pert):
        # qualitative interior decay: strictly decreasing values along a ray
        t = op_d3_pert.torus
        col = op_d3_pert.green_column(0)
        vals = [col.values[t.index_of((s, 0, 0)), 0, 0]
                for s in range(1, t.side // 2 + 1)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_vector_components(self):
        op = perturbed_operator(2, N=1, m=2)
        col = op.green_column(0)
        assert col.values.shape == (op.torus.sites, 2, 2)
        # symmetry of the block at the source
        np.testing.assert_allclose(col.values[0], col.values[0].T, atol=1e-9)


class TestDenseOracle:
    def test_dense_matches_matrix_free(self, op_d2_pert):
        A = dense_matrix(op_d2_pert)
        rng = np.random.default_rng(9)
        t = op_d2_pert.torus
        v = rng.standard_normal((t.sites, 1))
        np.testing.assert_allclose(
            A @ v.reshape(-1), op_d2_pert.apply_raw(v).reshape(-1), atol=1e-12
        )

    def test_size_guard(self):
        op = identity_operator(3, L=3, N=2)  # 729 sites, fine
        dense_matrix(op)
        big = identity_operator(2, L=3, N=4)  # 6561 sites
        with pytest.raises(OracleSizeError):
            dense_matrix(big)

    def test_green_pseudo_inverse_identity(self, op_d2_pert):
        G = dense_green(op_d2_pert)
        A = dense_matrix(op_d2_pert)
        P = mean_projector(op_d2_pert.torus)
        np.testing.assert_allclose(G @ A, P, atol=1e-9)
