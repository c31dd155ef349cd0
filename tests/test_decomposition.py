import os

import numpy as np
import pytest

from frdkit import (
    Decomposition,
    DecompositionPlan,
    LatticeError,
    LatticeTorus,
    build_decomposition,
    default_cube_sides,
    dense_green,
    load_archive,
    save_archive,
)
from frdkit.lattice import distances_from
from frdkit.operators import mean_projector
from frdkit.tableio import IntegrityError
from conftest import (identity_operator, perturbed_operator, random_mean_zero,
                      random_operator)


class TestPlan:
    def test_default_sides(self):
        assert default_cube_sides(3, 2) == (1, 3)
        assert default_cube_sides(3, 3) == (1, 3, 9)
        assert default_cube_sides(5, 1) == (1,)

    def test_default_plan(self):
        t = LatticeTorus(3, 1, 3, 2)
        plan = DecompositionPlan.default(t)
        assert plan.cube_sides == (1, 3)
        assert plan.range_radii == (1.5, 4.5)
        assert plan.levels == 3

    def test_sides_must_increase(self):
        with pytest.raises(LatticeError):
            DecompositionPlan((3, 3), (1.5, 4.5))

    def test_side_cap(self):
        t = LatticeTorus(2, 1, 3, 1)
        with pytest.raises(LatticeError):
            DecompositionPlan((1, 9), (1.5, 4.5)).validate_for(t)


class TestLevels:
    def test_levels_sum_to_green_solve(self, dec_d3_pert):
        phi = random_mean_zero(dec_d3_pert.op, 31)
        total = sum(dec_d3_pert.apply_all_levels_raw(phi.values))
        ref, _ = dec_d3_pert.op.solve_green_raw(phi.values)
        assert np.linalg.norm(total - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_apply_level_matches_apply_all(self, dec_d3_pert):
        phi = random_mean_zero(dec_d3_pert.op, 32)
        alls = dec_d3_pert.apply_all_levels_raw(phi.values)
        for k in range(1, dec_d3_pert.plan.levels + 1):
            single = dec_d3_pert.apply_level_raw(k, phi.values)
            np.testing.assert_allclose(single, alls[k - 1],
                                       atol=1e-11 * phi.norm())

    def test_level_out_of_range(self, dec_d3_pert):
        phi = random_mean_zero(dec_d3_pert.op, 33)
        with pytest.raises(LatticeError):
            dec_d3_pert.apply_level(0, phi)
        with pytest.raises(LatticeError):
            dec_d3_pert.apply_level(4, phi)

    def test_degenerate_single_level_whole_torus(self):
        # a single whole-torus cube makes the remainder vanish on mean-zero
        # fields, so the first level reproduces the full Green operator
        op = perturbed_operator(2, L=5, N=1)
        t = op.torus
        plan = DecompositionPlan((5,), (2.5,))
        dec = Decomposition(op, plan)
        phi = random_mean_zero(op, 34)
        lvl1 = dec.apply_level_raw(1, phi.values)
        G = dense_green(op)
        np.testing.assert_allclose(lvl1.reshape(-1), G @ phi.values.reshape(-1),
                                   atol=1e-9)
        lvl2 = dec.apply_level_raw(2, phi.values)
        assert np.abs(lvl2).max() <= 1e-10 * phi.norm()

    def test_level_symmetry(self, dec_d3_pert):
        phi = random_mean_zero(dec_d3_pert.op, 35)
        psi = random_mean_zero(dec_d3_pert.op, 36)
        for k in (1, 2, 3):
            a = float(np.vdot(dec_d3_pert.apply_level_raw(k, phi.values),
                              psi.values))
            b = float(np.vdot(phi.values,
                              dec_d3_pert.apply_level_raw(k, psi.values)))
            assert abs(a - b) <= 1e-9 * phi.norm() * psi.norm()

    def test_positive_rayleigh(self, dec_d3_pert):
        rng = np.random.default_rng(5)
        t = dec_d3_pert.op.torus
        for _ in range(20):
            phi = rng.standard_normal((t.sites, 1))
            phi -= phi.mean(axis=0)
            levels = dec_d3_pert.apply_all_levels_raw(phi)
            for lvl in levels:
                q = float(np.vdot(lvl, phi)) / float(np.vdot(phi, phi))
                assert q >= -1e-10


class TestKernelColumns:
    def test_sum_over_levels_is_green_column(self, dec_d3_pert):
        op = dec_d3_pert.op
        total = np.zeros_like(dec_d3_pert.level_kernel_column(1, 0).values)
        for k in (1, 2, 3):
            total += dec_d3_pert.level_kernel_column(k, 0).values
        green = op.green_column(0).values
        assert np.abs(total - green).max() <= 1e-9

    def test_translation_invariance_constant_A(self, dec_d3_const):
        t = dec_d3_const.op.torus
        shift = (1, 2, 0)
        for k in (1, 2):
            c0 = dec_d3_const.level_kernel_column(k, 0).values
            c1 = dec_d3_const.level_kernel_column(k, t.index_of(shift)).values
            rolled = t.to_grid(c0.reshape(t.sites, -1))
            rolled = np.roll(rolled, shift, axis=(0, 1, 2))
            np.testing.assert_allclose(t.to_flat(rolled),
                                       c1.reshape(t.sites, -1), atol=4e-10)

    def test_far_field_constancy(self, dec_d3_pert):
        # the far field of the ranged levels is flat to solver precision
        stats = dec_d3_pert.far_field_stats(1, 0)
        assert stats["far_sites"] > 0
        assert stats["far_std"] <= 1e-10 * stats["max_abs"]

    def test_far_mask_radii(self, dec_d3_pert):
        t = dec_d3_pert.op.torus
        dist = distances_from(t, (0, 0, 0))
        mask = dec_d3_pert.far_mask(1, 0)
        np.testing.assert_array_equal(mask, dist >= 1.5)
        # level 2 far region is empty on a side-9 torus (radius 4.5 > max 4)
        assert dec_d3_pert.far_mask(2, 0).sum() == 0

    def test_quadratic_form_matches_dense_assembly(self, dec_d2_pert):
        # the mean-projected symmetrization of the kernel slices equals the
        # dense level operator on mean-zero fields
        from frdkit.verification import dense_level_matrices
        dec = dec_d2_pert
        t = dec.op.torus
        mats = dense_level_matrices(dec)
        P = mean_projector(t)
        for k in (1, 2, 3):
            cols = np.stack(
                [dec.level_kernel_column(k, s).values[:, 0, 0]
                 for s in range(t.sites)], axis=1
            )
            sym = P @ (0.5 * (cols + cols.T)) @ P
            np.testing.assert_allclose(sym, mats[k - 1], atol=5e-9)


class TestVectorSystems:
    def test_two_component_decomposition(self):
        # full pipeline for a two-component field: telescoping, block far
        # field, and positivity all go through the m x m kernel paths
        op = perturbed_operator(2, L=3, N=1, m=2)
        t = op.torus
        dec = build_decomposition(op, sources=[0])
        phi = random_mean_zero(op, 60)
        total = sum(dec.apply_all_levels_raw(phi.values))
        ref, _ = op.solve_green_raw(phi.values)
        assert np.linalg.norm(total - ref) <= 1e-11 * np.linalg.norm(ref)
        col = dec.kernels[(1, 0)]
        assert col.values.shape == (t.sites, 2, 2)
        stats = dec.far_field_stats(1, 0)
        if stats["far_sites"] > 1:
            assert stats["far_std"] <= 1e-9 * stats["max_abs"]
        rng = np.random.default_rng(61)
        for _ in range(10):
            probe = rng.standard_normal((t.sites, 2))
            probe -= probe.mean(axis=0)
            for lvl in dec.apply_all_levels_raw(probe):
                assert np.vdot(lvl, probe) >= -1e-10 * np.vdot(probe, probe)


class TestBuildAndArchive:
    def test_empty_sources(self, op_d2_pert):
        dec = build_decomposition(op_d2_pert, sources=())
        assert dec.kernels == {}
        assert dec.manifest["sources"] == []

    @pytest.mark.parametrize("kind,classes", [("constant", 1), ("mode", 9),
                                              ("generic", 81)])
    def test_manifest_records_smoother_classes(self, kind, classes):
        make = {"constant": identity_operator, "mode": perturbed_operator,
                "generic": random_operator}[kind]
        dec = build_decomposition(make(2), sources=[0])
        assert dec.manifest["smoothers"] == [
            {"cube_side": 1, "classes": classes, "cached": True,
             "symbol": False},
            {"cube_side": 3, "classes": classes, "cached": True,
             "symbol": classes <= 9},
        ]

    def test_build_populates_levels(self, op_d2_pert):
        dec = build_decomposition(op_d2_pert, sources=[0, 40])
        assert set(dec.kernels) == {(k, s) for k in (1, 2, 3) for s in (0, 40)}

    def test_archive_round_trip_bit_exact(self, tmp_path, op_d2_pert):
        os.environ["SOURCE_DATE_EPOCH"] = "1700000000"
        try:
            dec = build_decomposition(op_d2_pert, sources=[0])
            first = tmp_path / "a"
            save_archive(dec, first)
            loaded = load_archive(first)
            second = tmp_path / "b"
            save_archive(loaded, second)
            for name in sorted(p.name for p in first.iterdir()):
                assert (first / name).read_bytes() == (second / name).read_bytes()
        finally:
            del os.environ["SOURCE_DATE_EPOCH"]

    def test_reloaded_values_identical(self, tmp_path, op_d2_pert):
        dec = build_decomposition(op_d2_pert, sources=[0])
        save_archive(dec, tmp_path / "arch")
        loaded = load_archive(tmp_path / "arch")
        np.testing.assert_array_equal(
            loaded.kernels[(1, 0)].values, dec.kernels[(1, 0)].values
        )
        assert loaded.plan == dec.plan
        assert loaded.op.coefficients.content_hash() == \
            dec.op.coefficients.content_hash()

    def test_truncated_table_detected(self, tmp_path, op_d2_pert):
        dec = build_decomposition(op_d2_pert, sources=[0])
        path = save_archive(dec, tmp_path / "arch")
        victim = path / "kernel_L1_S0.bin"
        victim.write_bytes(victim.read_bytes()[:-16])
        with pytest.raises(IntegrityError):
            load_archive(path)

    def test_edited_manifest_detected(self, tmp_path, op_d2_pert):
        dec = build_decomposition(op_d2_pert, sources=[0])
        path = save_archive(dec, tmp_path / "arch")
        manifest = (path / "manifest.json").read_text()
        (path / "manifest.json").write_text(
            manifest.replace('"format": "frdkit-archive-v1"',
                             '"format": "frdkit-archive-v0"'))
        with pytest.raises(IntegrityError):
            load_archive(path)
