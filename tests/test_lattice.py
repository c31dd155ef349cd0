import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frdkit import (
    LatticeError,
    LatticeField,
    LatticeTorus,
    MultiIndex,
    backward_diff,
    cube_sites,
    dist_inf,
    forward_diff,
    grad_multi,
)
from frdkit.lattice import cube_offsets, cube_windows, distances_from


def brute_dist_inf(x, y, torus):
    """Independent oracle: enumerate every periodic translate."""
    best = None
    for shifts in itertools.product(range(-1, 2), repeat=torus.d):
        z = np.array(x) - np.array(y) + torus.side * np.array(shifts)
        val = np.abs(z).max()
        best = val if best is None else min(best, val)
    return int(best)


class TestGeometry:
    def test_invalid_parameters(self):
        with pytest.raises(LatticeError):
            LatticeTorus(2, 1, 4, 1)  # even base scale
        with pytest.raises(LatticeError):
            LatticeTorus(2, 1, 1, 1)
        with pytest.raises(LatticeError):
            LatticeTorus(0, 1, 3, 1)
        with pytest.raises(LatticeError):
            LatticeTorus(2, 0, 3, 1)

    def test_sides_and_sites(self):
        t = LatticeTorus(3, 2, 3, 2)
        assert t.side == 9
        assert t.sites == 729

    def test_index_round_trip(self):
        t = LatticeTorus(2, 1, 3, 2)
        for idx in (0, 1, 40, t.sites - 1):
            assert t.index_of(t.coords_of(idx)) == idx
        assert t.index_of((9, 9)) == 0  # canonical wrap

    def test_site_resolves_indices_and_coordinates(self):
        t = LatticeTorus(2, 1, 3, 2)
        assert [t.site(x) for x in (0, np.int64(40), t.sites - 1)] == [0, 40, 80]
        assert type(t.site(np.int32(7))) is int
        assert t.site((1, 2)) == 11 and t.site([9, -1]) == 8  # coordinates wrap

    @pytest.mark.parametrize("x", [-1, 81, np.int64(-1), True, 1.5, (0, 1, 2)])
    def test_site_rejects_off_torus_and_non_indices(self, x):
        with pytest.raises(LatticeError):
            LatticeTorus(2, 1, 3, 2).site(x)

    def test_dist_identity(self):
        t = LatticeTorus(2, 1, 3, 2)
        assert dist_inf((3, 4), (3, 4), t) == 0

    def test_dist_wraparound(self):
        t = LatticeTorus(1, 1, 3, 2)
        assert dist_inf((0,), (8,), t) == 1

    def test_dist_derived_example(self):
        # expected value computed by full translate enumeration
        t = LatticeTorus(2, 1, 3, 2)
        assert brute_dist_inf((0, 0), (4, 5), t) == 4
        assert dist_inf((0, 0), (4, 5), t) == 4

    def test_dist_matches_oracle_everywhere(self):
        t = LatticeTorus(2, 1, 3, 2)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = rng.integers(0, 9, (2, 2))
            assert dist_inf(tuple(x), tuple(y), t) == brute_dist_inf(x, y, t)

    def test_metric_axioms_exhaustive(self):
        # triangle inequality over every site triple on a small torus
        t = LatticeTorus(2, 1, 3, 1)
        sites = [t.coords_of(i) for i in range(t.sites)]
        for x in sites:
            for y in sites:
                dxy = dist_inf(x, y, t)
                assert dxy == dist_inf(y, x, t)
                assert (dxy == 0) == (x == y)
                for z in sites:
                    assert dxy <= dist_inf(x, z, t) + dist_inf(z, y, t)

    def test_metric_axioms_exhaustive_side9(self):
        # all 81^3 triples at side 9, via the vectorized distance table
        t = LatticeTorus(2, 1, 3, 2)
        D = np.stack([distances_from(t, t.coords_of(i)) for i in range(t.sites)])
        assert (D == D.T).all()
        assert (np.diag(D) == 0).all() and (D[~np.eye(t.sites, dtype=bool)] > 0).all()
        for k in range(t.sites):
            assert (D <= D[:, [k]] + D[[k], :]).all()

    def test_distances_from_table(self):
        t = LatticeTorus(2, 1, 3, 2)
        table = distances_from(t, (2, 7))
        for idx in range(t.sites):
            assert table[idx] == dist_inf(t.coords_of(idx), (2, 7), t)
        assert table.max() <= t.side // 2


class TestFields:
    def test_shape_validation(self):
        t = LatticeTorus(2, 1, 3, 1)
        with pytest.raises(LatticeError):
            LatticeField(t, np.zeros((5, 1)))

    def test_mean_zero_tag_enforced(self):
        t = LatticeTorus(2, 1, 3, 1)
        with pytest.raises(LatticeError):
            LatticeField(t, np.ones((t.sites, 1)), mean_zero=True)
        LatticeField(t, np.zeros((t.sites, 1)), mean_zero=True)

    def test_values_read_only(self):
        t = LatticeTorus(2, 1, 3, 1)
        f = LatticeField(t, np.zeros((t.sites, 1)))
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0


class TestDifferences:
    def test_constant_is_killed(self):
        t = LatticeTorus(2, 1, 3, 1)
        c = LatticeField(t, np.full((t.sites, 1), 3.7))
        for j in range(2):
            assert forward_diff(c, j).norm() == 0.0
            assert backward_diff(c, j).norm() == 0.0

    def test_forward_stencil_1d(self):
        t = LatticeTorus(1, 1, 3, 1)
        phi = LatticeField(t, np.array([[0.0], [1.0], [0.0]]))
        np.testing.assert_allclose(forward_diff(phi, 0).values.ravel(),
                                   [1.0, -1.0, 0.0])

    def test_backward_stencil_1d(self):
        # expected values from direct stencil evaluation with wrap
        t = LatticeTorus(1, 1, 3, 1)
        phi = LatticeField(t, np.array([[0.0], [1.0], [0.0]]))
        np.testing.assert_allclose(backward_diff(phi, 0).values.ravel(),
                                   [0.0, -1.0, 1.0])

    def test_axis_out_of_range(self):
        t = LatticeTorus(2, 1, 3, 1)
        phi = LatticeField(t, np.zeros((t.sites, 1)))
        with pytest.raises(LatticeError):
            forward_diff(phi, 2)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(0, 1))
    def test_summation_by_parts(self, seed, axis):
        t = LatticeTorus(2, 1, 5, 1)
        rng = np.random.default_rng(seed)
        phi = LatticeField(t, rng.standard_normal((t.sites, 1)))
        psi = LatticeField(t, rng.standard_normal((t.sites, 1)))
        lhs = forward_diff(phi, axis).dot(psi)
        rhs = phi.dot(backward_diff(psi, axis))
        assert abs(lhs - rhs) <= 1e-12 * phi.norm() * psi.norm()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_telescoping_sum_and_mean_zero(self, seed):
        t = LatticeTorus(2, 1, 3, 2)
        rng = np.random.default_rng(seed)
        phi = LatticeField(t, rng.standard_normal((t.sites, 1)))
        for j in range(2):
            out = forward_diff(phi, j)
            assert abs(out.values.sum()) <= 1e-10 * max(phi.norm(), 1.0)
            assert out.mean_zero

    def test_axes_commute(self):
        # the composed stencils agree up to float re-association only
        t = LatticeTorus(2, 1, 3, 2)
        rng = np.random.default_rng(7)
        phi = LatticeField(t, rng.standard_normal((t.sites, 1)))
        a = forward_diff(forward_diff(phi, 0), 1)
        b = forward_diff(forward_diff(phi, 1), 0)
        np.testing.assert_allclose(a.values, b.values, atol=1e-14)


class TestMultiIndex:
    def test_cap(self):
        with pytest.raises(LatticeError):
            MultiIndex((2, 2), cap=3)
        assert MultiIndex((1, 2)).order == 3

    def test_zero_is_identity(self):
        t = LatticeTorus(2, 1, 3, 1)
        rng = np.random.default_rng(1)
        phi = LatticeField(t, rng.standard_normal((t.sites, 1)))
        np.testing.assert_array_equal(grad_multi(phi, (0, 0)).values, phi.values)

    def test_unit_matches_forward_diff(self):
        t = LatticeTorus(2, 1, 3, 1)
        rng = np.random.default_rng(2)
        phi = LatticeField(t, rng.standard_normal((t.sites, 1)))
        np.testing.assert_array_equal(grad_multi(phi, (0, 1)).values,
                                      forward_diff(phi, 1).values)


class TestCubes:
    def test_whole_torus(self):
        t = LatticeTorus(2, 1, 3, 1)
        idx = cube_sites(t, (0, 0), 3)
        assert sorted(idx) == list(range(9))

    def test_singleton_closure(self):
        t = LatticeTorus(2, 1, 3, 2)
        idx = cube_sites(t, (4, 4), 1)
        assert idx.size == 1

    def test_derived_closure_count(self):
        # 3-cube at the origin: 9 sites
        t = LatticeTorus(2, 1, 3, 2)
        idx = cube_sites(t, (0, 0), 3)
        assert idx.size == 9

    def test_wrapped_cube(self):
        t = LatticeTorus(2, 1, 3, 2)
        idx = cube_sites(t, (8, 8), 3)
        coords = {t.coords_of(i) for i in idx}
        assert (0, 0) in coords and (8, 8) in coords

    def test_side_out_of_range(self):
        t = LatticeTorus(2, 1, 3, 1)
        with pytest.raises(LatticeError):
            cube_sites(t, (0, 0), 4)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cube_windows_follow_cube_offsets(self, d):
        windows = cube_windows(d, 3, 5)
        starts = [[w.start for w in win] for win in windows]
        assert starts == cube_offsets(d, 3).tolist()
        assert all(w.stop - w.start == 5 for win in windows for w in win)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cube_sites_match_coordinate_formula(self, d):
        # every anchor, including negative ones and ones past the side
        t = LatticeTorus(d, 1, 3, 2 if d < 3 else 1)
        for side_length in range(1, min(t.side, 5) + 1):
            offs = itertools.product(range(side_length), repeat=d)
            offs = np.array(list(offs), dtype=np.int64).reshape(-1, d)
            for anchor in itertools.product(range(-t.side - 1, 2 * t.side + 1),
                                            repeat=d):
                coords = (np.array(anchor)[None, :] + offs) % t.side
                expected = np.ravel_multi_index(tuple(coords.T), t.shape)
                got = cube_sites(t, anchor, side_length)
                assert got.dtype == np.int64
                assert np.array_equal(got, expected)
