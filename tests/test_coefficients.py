import itertools

import numpy as np
import pytest

from frdkit import (
    BudgetError,
    CoefficientField,
    LatticeTorus,
    NonEllipticError,
    PerturbationSpec,
    TrigMode,
    ellipticity_constants,
    make_perturbed,
    scaled_smoothness_norm,
)
from frdkit import coefficients
from frdkit.coefficients import export_table, import_table, spec_from_config
from frdkit.lattice import MULTI_INDEX_CAP, grad_multi_raw
from conftest import random_operator


def single_mode_spec(d, eps, budget=None):
    return PerturbationSpec(
        base=np.eye(d),
        epsilon=eps,
        modes=(TrigMode(frequency=(1,) + (0,) * (d - 1), amplitude=np.eye(d)),),
        budget=budget,
    )


def brute_smoothness_norm(A, reference, cap=3):
    """Independent oracle: explicit loops over multi-indices and entries."""
    t = A.torus
    md = t.m * t.d
    dev = A.values - reference[None, :, :]
    grids = dev.reshape(t.shape + (md, md))
    best = 0.0
    for exps in itertools.product(range(cap + 1), repeat=t.d):
        if sum(exps) > cap:
            continue
        g = grids
        for axis, reps in enumerate(exps):
            for _ in range(reps):
                g = np.roll(g, -1, axis=axis) - g
        mats = g.reshape(-1, md, md)
        norms = np.abs(np.linalg.eigvalsh(0.5 * (mats + mats.transpose(0, 2, 1))))
        best = max(best, float(t.side ** sum(exps) * norms.max()))
    return best


class TestEllipticity:
    def test_identity(self):
        t = LatticeTorus(2, 1, 3, 1)
        A = CoefficientField.identity(t)
        assert ellipticity_constants(A) == (1.0, 1.0)

    def test_diagonal_read_off(self):
        t = LatticeTorus(2, 1, 3, 1)
        A = CoefficientField.constant(t, np.diag([2.0, 0.5]))
        c0, c1 = ellipticity_constants(A)
        assert (c0, c1) == (0.5, 2.0)

    def test_perturbed_band(self):
        # bounds from a per-site eigenvalue sweep of A0 + eps*sin(.)*I
        t = LatticeTorus(2, 1, 3, 2)
        A = make_perturbed(single_mode_spec(2, 0.1, budget=30.0), t)
        c0, c1 = ellipticity_constants(A)
        assert 0.9 <= c0 <= 1.0
        assert 1.0 <= c1 <= 1.1

    def test_non_elliptic_rejected(self):
        t = LatticeTorus(2, 1, 3, 1)
        with pytest.raises(NonEllipticError):
            ellipticity_constants(CoefficientField.constant(t, np.diag([1.0, -0.1])))

    def test_asymmetric_rejected(self):
        t = LatticeTorus(2, 1, 3, 1)
        vals = np.broadcast_to(np.array([[1.0, 0.2], [0.0, 1.0]]),
                               (t.sites, 2, 2)).copy()
        with pytest.raises(NonEllipticError):
            CoefficientField(t, vals)

    def test_scaling_homogeneity(self):
        t = LatticeTorus(2, 1, 3, 2)
        A = make_perturbed(single_mode_spec(2, 0.05, budget=20.0), t)
        B = CoefficientField(t, 3.0 * A.values)
        ca = ellipticity_constants(A)
        cb = ellipticity_constants(B)
        np.testing.assert_allclose(cb, (3 * ca[0], 3 * ca[1]), rtol=1e-13)


class TestSmoothnessNorm:
    def test_constant_field(self):
        t = LatticeTorus(2, 1, 3, 1)
        A = CoefficientField.constant(t, np.diag([2.0, 0.5]))
        assert scaled_smoothness_norm(A) == pytest.approx(2.0)
        assert scaled_smoothness_norm(A, reference=np.diag([2.0, 0.5])) == 0.0

    def test_linear_in_amplitude(self):
        t = LatticeTorus(2, 1, 3, 2)
        full = make_perturbed(single_mode_spec(2, 0.08, budget=25.0), t)
        half = make_perturbed(single_mode_spec(2, 0.04, budget=25.0), t)
        r_full = scaled_smoothness_norm(full, reference=np.eye(2))
        r_half = scaled_smoothness_norm(half, reference=np.eye(2))
        assert r_full / r_half == pytest.approx(2.0, abs=1e-9)

    def test_matches_brute_force(self):
        t = LatticeTorus(2, 1, 3, 2)
        A = make_perturbed(single_mode_spec(2, 0.05, budget=20.0), t)
        fast = scaled_smoothness_norm(A, reference=np.eye(2))
        slow = brute_smoothness_norm(A, np.eye(2))
        assert fast == pytest.approx(slow, rel=1e-12)

    def test_two_component_systems(self):
        t = LatticeTorus(2, 2, 3, 1)
        md = 4
        amp = np.eye(md)
        spec = PerturbationSpec(np.eye(md), 0.02,
                                (TrigMode((1, 0), amp),), budget=20.0)
        A = make_perturbed(spec, t)
        assert scaled_smoothness_norm(A, reference=np.eye(md)) > 0.0


def periodic_field(kind, d):
    """Coefficients on side 9: constant, one mode along the first or last axis,
    a frequency-3 mode (period 3), two modes (d = 3) or random."""
    t = LatticeTorus(d, 1, 3, 2)
    if kind == "random":
        return random_operator(d, N=2, seed=5).coefficients
    freqs = {"constant": [], "one-mode": [(1,) + (0,) * (d - 1)],
             "last-axis": [(0,) * (d - 1) + (1,)],
             "period-3": [(3,) + (0,) * (d - 1)],
             "two-mode": [(1, 0, 0), (0, 3, 0)]}[kind]
    spec = PerturbationSpec(np.eye(d), 0.05, tuple(
        TrigMode(f, np.eye(d), phase=0.3) for f in freqs), budget=1000.0)
    return make_perturbed(spec, t)


@pytest.mark.parametrize("kind,d", [("constant", 2), ("one-mode", 2), ("one-mode", 3),
                                    ("two-mode", 3), ("random", 2), ("constant", 1),
                                    ("one-mode", 1), ("last-axis", 3), ("period-3", 2),
                                    ("period-3", 3)])
def test_period_cell_checks_equal_full_site_sweeps(kind, d):
    """Ellipticity and smoothness read one period cell, bit-identically.

    Sides are odd, so periods are odd: 1 and 3 lie at or below the 3-site
    padding of the smoothness differences, 9 above it.
    """
    A = periodic_field(kind, d)
    t = A.torus
    md = t.m * t.d
    eigs = np.linalg.eigvalsh(A.values)
    assert ellipticity_constants(A) == (float(eigs[:, 0].min()), float(eigs[:, -1].max()))
    for reference in (None, 1.1 * np.eye(md)):
        dev = A.values.reshape(t.sites, md * md)
        if reference is not None:
            dev = dev - reference.reshape(1, md * md)
        full = 0.0
        for exps in itertools.product(range(MULTI_INDEX_CAP + 1), repeat=t.d):
            if sum(exps) <= MULTI_INDEX_CAP:
                diff = grad_multi_raw(t, dev, exps).reshape(t.sites, md, md)
                norm = np.abs(np.linalg.eigvalsh(diff)).max()
                full = max(full, float(t.side ** sum(exps) * norm))
        assert scaled_smoothness_norm(A, reference) == full


class TestMakePerturbed:
    def test_zero_amplitude_is_constant(self):
        t = LatticeTorus(2, 1, 3, 1)
        A = make_perturbed(single_mode_spec(2, 0.0), t)
        np.testing.assert_array_equal(A.values[0], np.eye(2))
        assert scaled_smoothness_norm(A, reference=np.eye(2)) == 0.0

    def test_budget_violation(self):
        t = LatticeTorus(2, 1, 3, 2)
        with pytest.raises(BudgetError):
            make_perturbed(single_mode_spec(2, 0.05, budget=1e-6), t)

    def test_zero_epsilon_skips_the_smoothness_norm(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("smoothness norm computed for epsilon = 0")

        monkeypatch.setattr(coefficients, "scaled_smoothness_norm", refuse)
        t = LatticeTorus(2, 1, 3, 2)
        A = make_perturbed(single_mode_spec(2, 0.0, budget=1e-6), t)
        np.testing.assert_array_equal(A.values[0], np.eye(2))

    def test_ellipticity_lost(self):
        t = LatticeTorus(2, 1, 3, 2)
        with pytest.raises(NonEllipticError):
            make_perturbed(single_mode_spec(2, 1.5, budget=100.0), t)

    def test_default_budget_fraction_of_c0(self):
        spec = single_mode_spec(2, 0.01)
        assert spec.resolved_budget() == pytest.approx(0.05)


class TestConfigAndTables:
    def test_config_round_trip(self):
        cfg = {
            "d": 2, "m": 1, "L": 3, "N": 2,
            "A0": [[1.0, 0.0], [0.0, 1.0]],
            "epsilon": 0.05,
            "modes": [{"frequency": [1, 0],
                       "amplitude": [[1.0, 0.0], [0.0, 1.0]]}],
            "budget": 20.0,
        }
        torus, spec = spec_from_config(cfg)
        A = make_perturbed(spec, torus)
        assert torus.side == 9
        assert A.values.shape == (81, 2, 2)

    def test_unknown_key_rejected(self):
        from frdkit.lattice import LatticeError
        with pytest.raises(LatticeError):
            spec_from_config({"d": 2, "m": 1, "L": 3, "N": 1, "A0": [[1]],
                              "epsilon": 0.0, "epsilonn": 1.0})

    def test_binary_round_trip(self, tmp_path):
        t = LatticeTorus(2, 1, 3, 2)
        A = make_perturbed(single_mode_spec(2, 0.05, budget=20.0), t)
        export_table(A, tmp_path / "coeff")
        B = import_table(tmp_path / "coeff")
        np.testing.assert_array_equal(A.values, B.values)
        assert A.content_hash() == B.content_hash()
