import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frdkit import Cube, LatticeField, LatticeTorus
from frdkit.lattice import cube_sites
from frdkit import regularity as reg
from frdkit.regularity import (
    NotHarmonicError,
    bmo_norm,
    caccioppoli_check,
    decay_estimate_check,
    fefferman_stein_check,
    green_pair_difference,
    hardy_littlewood_check,
    harmonic_extension,
    kernel_majorant_report,
    level_decay_report,
    maximal_values,
    maximal_values_in_cube,
    projection_bound_check,
    sharp_values,
    sharp_values_in_cube,
    sobolev_check,
    weak_norm,
    weak_norm_cube,
    weak_vs_strong_check,
)
from conftest import identity_operator, perturbed_operator, random_mean_zero


def brute_force_family(t, values, cubes):
    """Per site, the largest mean |f| and mean oscillation over the listed cubes.

    Each cube is (anchor, side); its sites come from the coordinate formula
    (anchor + offset) mod side, independently of ``cube_sites``.
    """
    mag = np.zeros(t.sites)
    osc = np.zeros(t.sites)
    for anchor, l in cubes:
        idx = [t.index_of(tuple(a + o for a, o in zip(anchor, off)))
               for off in itertools.product(range(l), repeat=t.d)]
        block = values[idx]
        mean_mag = np.sqrt((block ** 2).sum(axis=1)).mean()
        mean_osc = np.sqrt(((block - block.mean(axis=0)) ** 2).sum(axis=1)).mean()
        mag[idx] = np.maximum(mag[idx], mean_mag)
        osc[idx] = np.maximum(osc[idx], mean_osc)
    return mag, osc


def scalar_field(t, values):
    return LatticeField(t, np.asarray(values, dtype=np.float64).reshape(t.sites, 1))


class TestWeakNorms:
    def test_single_site_indicator(self):
        t = LatticeTorus(2, 1, 3, 1)
        f = np.zeros((t.sites, 1))
        f[4, 0] = 1.0
        for p in (1.0, 2.0, 3.5):
            assert weak_norm(f, p) == pytest.approx(1.0)

    def test_weak_le_strong_random(self):
        t = LatticeTorus(2, 1, 3, 2)
        rng = np.random.default_rng(0)
        for p in (1.0, 2.0, 4.0):
            f = rng.standard_normal((t.sites, 1))
            rec = weak_vs_strong_check(LatticeField(t, f), p)
            assert rec.passed

    def test_exact_on_two_levels(self):
        # direct enumeration: levels t=2 (count 1) and t=1 (count 3), so the
        # sup is max(2 * 1^(1/p), 1 * 3^(1/p))
        t = LatticeTorus(1, 1, 3, 1)
        f = np.array([[2.0], [1.0], [1.0]])
        assert weak_norm(f, 1.0) == pytest.approx(3.0)
        assert weak_norm(f, 2.0) == pytest.approx(2.0)
        assert weak_norm(f, 4.0) == pytest.approx(2.0)

    def test_cube_normalization(self):
        t = LatticeTorus(2, 1, 3, 2)
        rng = np.random.default_rng(1)
        f = rng.standard_normal((t.sites, 1))
        idx = cube_sites(t, (0, 0), 3)
        val = weak_norm_cube(f, idx, 2.0)
        assert val == pytest.approx(weak_norm(f[idx], 2.0) / 3.0)

    def test_majorant_bounded(self):
        t = LatticeTorus(3, 1, 3, 2)
        rec = kernel_majorant_report(t, 0)
        assert rec.lhs > 0
        assert rec.passed  # reported-only, against the dimensional envelope
        # a numpy integer names a site index, as it does for every source
        assert kernel_majorant_report(t, np.int64(5)).lhs == \
            kernel_majorant_report(t, 5).lhs

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1),
           st.floats(0.1, 50.0), st.sampled_from([1.0, 2.0, 3.0]))
    def test_weak_norm_homogeneous(self, seed, scale, p):
        t = LatticeTorus(2, 1, 3, 1)
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((t.sites, 1))
        assert weak_norm(scale * f, p) == pytest.approx(scale * weak_norm(f, p))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_maximal_monotone_in_family(self, seed):
        # enlarging the cube family can only increase the maximal function
        t = LatticeTorus(2, 1, 3, 2)
        rng = np.random.default_rng(seed)
        f = scalar_field(t, rng.standard_normal(t.sites))
        small = maximal_values(f, max_side=2)
        large = maximal_values(f, max_side=4)
        assert (large >= small - 1e-14).all()


class TestMaximalSharp:
    def test_constant_field(self):
        t = LatticeTorus(2, 1, 3, 2)
        f = scalar_field(t, np.full(t.sites, -2.0))
        np.testing.assert_allclose(maximal_values(f), 2.0)
        np.testing.assert_allclose(sharp_values(f), 0.0, atol=1e-14)
        assert bmo_norm(f) == pytest.approx(0.0, abs=1e-14)

    def test_maximal_dominates_field(self):
        t = LatticeTorus(2, 1, 3, 2)
        rng = np.random.default_rng(2)
        f = scalar_field(t, rng.standard_normal(t.sites))
        assert (maximal_values(f) >= np.abs(f.values.ravel()) - 1e-14).all()

    def test_sharp_below_twice_maximal(self):
        t = LatticeTorus(2, 1, 3, 2)
        rng = np.random.default_rng(3)
        f = scalar_field(t, rng.standard_normal(t.sites))
        assert (sharp_values(f) <= 2 * maximal_values(f) + 1e-12).all()

    def test_maximal_against_brute_force(self):
        # brute force over every cube (anchor, side) containing each site
        t = LatticeTorus(2, 1, 3, 1)
        rng = np.random.default_rng(4)
        f = scalar_field(t, rng.standard_normal(t.sites))
        mags = np.abs(f.values.ravel())
        got = maximal_values(f, max_side=2)
        for site in range(t.sites):
            best = 0.0
            sx = np.array(t.coords_of(site))
            for l in (1, 2):
                for ax in range(3):
                    for ay in range(3):
                        anchor = (ax, ay)
                        idx = cube_sites(t, anchor, l)
                        rel = (sx - np.array(anchor)) % t.side
                        if (rel < l).all():
                            best = max(best, mags[idx].mean())
            assert got[site] == pytest.approx(best)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_periodic_family_against_brute_force(self, d, m):
        # max_side above side // 2 makes cubes of several sides cross the wrap
        t = LatticeTorus(d, m, 3, 2 if d < 3 else 1)
        f = LatticeField(t, np.random.default_rng(10 + d).standard_normal((t.sites, m)))
        max_side = min(t.side, 5)
        anchors = list(itertools.product(range(t.side), repeat=d))
        cubes = [(a, l) for l in range(1, max_side + 1) for a in anchors]
        mag_ref, osc_ref = brute_force_family(t, f.values, cubes)
        np.testing.assert_allclose(maximal_values(f, max_side), mag_ref, rtol=1e-12)
        np.testing.assert_allclose(sharp_values(f, max_side), osc_ref,
                                   rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_in_cube_family_against_brute_force(self, d, m):
        # the cube crosses the torus wrap along every axis
        t = LatticeTorus(d, m, 3, 2)
        f = LatticeField(t, np.random.default_rng(20 + d).standard_normal((t.sites, m)))
        lq = 4
        cube = Cube((7,) * d, lq)
        cubes = [(tuple(7 + b for b in corner), l) for l in range(1, lq + 1)
                 for corner in itertools.product(range(lq - l + 1), repeat=d)]
        order = [t.index_of(tuple(7 + o for o in off))
                 for off in itertools.product(range(lq), repeat=d)]
        mag_ref, osc_ref = brute_force_family(t, f.values, cubes)
        np.testing.assert_allclose(maximal_values_in_cube(f, cube), mag_ref[order],
                                   rtol=1e-12)
        np.testing.assert_allclose(sharp_values_in_cube(f, cube), osc_ref[order],
                                   rtol=1e-12, atol=1e-15)

    def test_hardy_littlewood_passes_frozen(self):
        t = LatticeTorus(2, 1, 3, 2)
        rng = np.random.default_rng(5)
        f = scalar_field(t, rng.standard_normal(t.sites))
        assert hardy_littlewood_check(f).passed

    def test_fefferman_stein_two_sided(self):
        t = LatticeTorus(2, 1, 3, 2)
        rng = np.random.default_rng(6)
        f = scalar_field(t, rng.standard_normal(t.sites))
        fwd, rev = fefferman_stein_check(f, Cube((1, 1), 6))
        assert fwd.passed and rev.passed


class TestSobolev:
    def test_zero_field(self):
        t = LatticeTorus(2, 1, 3, 2)
        rec = sobolev_check(scalar_field(t, np.zeros(t.sites)), "i",
                            Cube((0, 0), 7), p=2.0, q=3.0)
        assert rec.lhs == 0.0 and rec.rhs == 0.0 and rec.passed

    def test_case_iv_stable_over_seeds(self):
        t = LatticeTorus(2, 1, 3, 2)
        ratios = []
        for seed in range(30):
            rng = np.random.default_rng(seed)
            f = scalar_field(t, rng.standard_normal(t.sites))
            rec = sobolev_check(f, "iv", Cube((0, 0), 8))
            assert rec.passed
            ratios.append(rec.ratio)
        assert max(ratios) / min(ratios) < 10.0

    def test_case_ii_all_pairs(self):
        t = LatticeTorus(2, 1, 3, 2)
        rng = np.random.default_rng(9)
        f = scalar_field(t, rng.standard_normal(t.sites))
        rec = sobolev_check(f, "ii", Cube((1, 1), 6), p=4.0)
        assert rec.passed

    def test_case_iii_runs(self):
        t = LatticeTorus(3, 1, 3, 2)
        rng = np.random.default_rng(10)
        f = scalar_field(t, rng.standard_normal(t.sites))
        rec = sobolev_check(f, "iii", Cube((0, 0, 0), 6), p=1.0, q=2.0, order=2)
        assert rec.rhs > 0

    def test_parameter_validation(self):
        t = LatticeTorus(2, 1, 3, 2)
        f = scalar_field(t, np.zeros(t.sites))
        from frdkit.lattice import LatticeError
        with pytest.raises(LatticeError):
            sobolev_check(f, "i", Cube((0, 0), 7), p=5.0, q=2.0)  # p > d
        with pytest.raises(LatticeError):
            sobolev_check(f, "ii", Cube((0, 0), 7), p=2.0)  # p <= d
        with pytest.raises(LatticeError):
            sobolev_check(f, "bogus", Cube((0, 0), 7))


class TestHarmonicChecks:
    def test_requires_harmonicity(self, op_d2_pert):
        rng = np.random.default_rng(11)
        t = op_d2_pert.torus
        f = scalar_field(t, rng.standard_normal(t.sites))
        with pytest.raises(NotHarmonicError):
            caccioppoli_check(op_d2_pert, f, Cube((0, 0), 7), Cube((2, 2), 3))

    def test_constant_field_trivial(self, op_d2_pert):
        t = op_d2_pert.torus
        c = scalar_field(t, np.full(t.sites, 1.5))
        rec = caccioppoli_check(op_d2_pert, c, Cube((0, 0), 7), Cube((2, 2), 3))
        assert rec.lhs == pytest.approx(0.0, abs=1e-20)
        assert rec.passed

    def test_harmonic_extension_passes(self, op_d2_pert):
        u = harmonic_extension(op_d2_pert, Cube((0, 0), 8),
                               random_mean_zero(op_d2_pert, 12))
        rec = caccioppoli_check(op_d2_pert, u, Cube((0, 0), 7), Cube((2, 2), 3))
        assert rec.passed

    def test_green_difference_harmonic_away_from_sources(self, op_d3_pert):
        t = op_d3_pert.torus
        u = green_pair_difference(op_d3_pert, (0, 0, 0), (0, 0, 1))
        rec = caccioppoli_check(op_d3_pert, u, Cube((2, 2, 3), 6),
                                Cube((4, 4, 5), 2))
        assert rec.passed

    def test_harmonic_polynomial_d2(self):
        # x^2 - y^2 is exactly harmonic for the unit stencil away from wrap
        op = identity_operator(2)
        t = op.torus
        coords = t.all_coords().astype(np.float64)
        u = scalar_field(t, coords[:, 0] ** 2 - coords[:, 1] ** 2)
        rec = caccioppoli_check(op, u, Cube((1, 1), 6), Cube((3, 3), 2))
        assert rec.passed

    def test_decay_estimates(self, op_d2_pert):
        u = harmonic_extension(op_d2_pert, Cube((0, 0), 8),
                               random_mean_zero(op_d2_pert, 13))
        mass, osc = decay_estimate_check(op_d2_pert, u, Cube((0, 0), 7),
                                         Cube((2, 2), 4))
        assert mass.passed and osc.passed

    def test_decay_ratio_scale_invariant(self, op_d2_pert):
        u = harmonic_extension(op_d2_pert, Cube((0, 0), 8),
                               random_mean_zero(op_d2_pert, 14))
        mass, _ = decay_estimate_check(op_d2_pert, u, Cube((0, 0), 7),
                                       Cube((2, 2), 4))
        doubled = LatticeField(op_d2_pert.torus, 2.0 * u.values)
        mass2, _ = decay_estimate_check(op_d2_pert, doubled, Cube((0, 0), 7),
                                        Cube((2, 2), 4))
        assert mass.ratio == pytest.approx(mass2.ratio, rel=1e-12)


class TestProjectionBounds:
    def test_reduces_to_green_decay_when_no_cubes(self, op_d3_pert):
        rec = projection_bound_check(op_d3_pert, [], (0, 0, 0), j=0)
        assert rec.passed
        assert rec.params["k"] == 0

    def test_green_decay_ratios_bounded(self, op_d3_pert):
        # boundedness of |grad^j K| * dist^(d-2+j), reported with its constant
        from frdkit.regularity import green_decay_check
        col = op_d3_pert.green_column(0)
        for j in (0, 1, 2):
            rec = green_decay_check(col, j)
            assert np.isfinite(rec.lhs) and rec.lhs > 0
            assert not rec.asserted

    def test_projection_of_harmonic_slice_is_identity(self, op_d3_pert):
        # a cube away from the source leaves the slice unchanged
        from frdkit.smoothing import CubeProjector
        t = op_d3_pert.torus
        col = op_d3_pert.green_column(0).values[:, :, 0]
        cube = Cube((3, 3, 3), 3)  # source (0,0,0) is outside
        proj = CubeProjector(op_d3_pert, cube)
        # the background part of the kernel equation leaves a uniform
        # residue, so compare against the cube response to that constant
        moved = proj.project_raw(col)
        const = np.full((t.sites, 1), -1.0 / t.sites)
        expected = proj.dirichlet_solve_raw(const)
        np.testing.assert_allclose(moved, expected, atol=1e-9)

    def test_nested_cubes_bound(self, op_d3_pert):
        rec = projection_bound_check(
            op_d3_pert, [Cube((2, 2, 2), 5), Cube((3, 3, 3), 3)], (0, 0, 0))
        assert rec.passed

    def test_gradient_order(self, op_d3_pert):
        rec = projection_bound_check(op_d3_pert, [Cube((2, 2, 2), 5)],
                                     (0, 0, 0), j=1)
        assert np.isfinite(rec.lhs)


class TestLevelDecay:
    def test_report_structure(self, dec_d3_pert):
        rep = level_decay_report(dec_d3_pert, [0], (0, 1))
        assert rep.levels == (1, 2, 3)
        assert rep.asserted
        assert rep.strictly_decreasing(0)
        assert rep.strictly_decreasing(1)

    def test_slopes_meet_targets(self, dec_d3_pert):
        rep = level_decay_report(dec_d3_pert, [0], (0, 1))
        for a in (0, 1):
            assert rep.slopes[a]["claimed_fit"] <= rep.slopes[a]["target"]

    def test_gradient_decays_faster(self, dec_d3_pert):
        # one extra power of decay per gradient order, at the documented slack
        rep = level_decay_report(dec_d3_pert, [0], (0, 1))
        assert rep.slopes[1]["full_fit"] <= rep.slopes[0]["full_fit"] - 1 + 1.0

    def test_single_level_not_asserted(self):
        op = perturbed_operator(2, L=3, N=1)
        from frdkit import build_decomposition
        dec = build_decomposition(op, sources=[0])
        rep = level_decay_report(dec, [0], (0,))
        assert not rep.asserted


class TestCubeProblems:
    def test_global_estimate(self, op_d3_pert):
        t = op_d3_pert.torus
        rng = np.random.default_rng(15)
        fmat = rng.standard_normal((t.sites, 1, 3))
        g = rng.standard_normal((t.sites, 1))
        rec = reg.global_estimate_check(op_d3_pert, Cube((0, 0, 0), 7),
                                        fmat, g, p=2.5, q=1.5)
        assert rec.passed

    def test_weak_interpolation(self, op_d2_pert):
        t = op_d2_pert.torus
        rng = np.random.default_rng(16)
        fmat = rng.standard_normal((t.sites, 1, 2))
        rec = reg.weak_interpolation_check(op_d2_pert, Cube((0, 0), 7), fmat)
        assert rec.passed

