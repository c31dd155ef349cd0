"""Acceptance criteria, one test per criterion with a printed verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
Every tolerance is pinned here; nothing is calibrated at run time except the
documented frozen-constant corpus, which asserts zero failures.
"""

import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from frdkit import (Cube, DecompositionPlan, LatticeField, build_decomposition,
                    dense_green)
from frdkit.cli import main as cli_main
from frdkit.lattice import distances_from
from frdkit.operators import mean_projector
from frdkit.regularity import (
    caccioppoli_check,
    green_pair_difference,
    harmonic_extension,
    level_decay_report,
)
from frdkit.smoothing import CubeProjector
from frdkit.verification import dense_level_matrices, regularity_suite
from frdkit.sensitivity import (
    DirectionalProbe,
    directional_derivative,
    green_derivative_estimate,
    green_derivative_oracle,
)
from frdkit import CoefficientField
from conftest import identity_operator, perturbed_operator

RESULTS = []


def verdict(number: int, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number} {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    RESULTS.append(line)
    assert passed, line


@pytest.fixture(scope="module")
def side5_ops():
    return {
        "const": identity_operator(2, L=5, N=1),
        "pert": perturbed_operator(2, L=5, N=1),
    }


class TestCriteria:
    def test_1_telescoping(self, dec_d3_const, dec_d3_pert, dec_d2_const,
                           dec_d2_pert):
        t0 = time.time()
        worst = {}
        rng = np.random.default_rng(101)
        for name, dec in [("d3const", dec_d3_const), ("d3pert", dec_d3_pert),
                          ("d2const", dec_d2_const), ("d2pert", dec_d2_pert)]:
            t = dec.op.torus
            w = 0.0
            for _ in range(50):
                phi = rng.standard_normal((t.sites, t.m))
                phi -= phi.mean(axis=0)
                total = np.zeros_like(phi)
                for k in range(1, dec.plan.levels + 1):
                    total += dec.apply_level_raw(k, phi)
                ref, _ = dec.op.solve_green_raw(phi, dec.plan.solver_tol)
                w = max(w, float(np.linalg.norm(total - ref)
                                 / np.linalg.norm(ref)))
            worst[name] = w
        elapsed = time.time() - t0
        ok = max(worst.values()) <= 1e-7 and elapsed <= 4 * 300
        verdict(1, ok, "telescoping rel err "
                + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
                + f" (tol 1e-7, 50 probes/config, {elapsed:.1f}s)")

    def test_2_finite_range(self, dec_d3_const, dec_d3_pert):
        details = []
        ok = True
        for name, dec in [("const", dec_d3_const), ("pert", dec_d3_pert)]:
            for k in (1, 2):
                stats = dec.far_field_stats(k, 0)
                if stats["far_sites"] == 0:
                    details.append(f"{name} k={k} vacuous (radius beyond torus)")
                    continue
                rel = stats["far_std"] / stats["max_abs"]
                ok = ok and rel <= 1e-6
                details.append(f"{name} k={k} std/max={rel:.2e}")
        verdict(2, ok, "far-field constancy at radius L^k/2: "
                + "; ".join(details) + " (tol 1e-6)")

    def test_3_positivity(self, dec_d3_const, dec_d3_pert, dec_d2_const,
                          dec_d2_pert, side5_ops):
        rng = np.random.default_rng(202)
        worst = 0.0
        for dec in (dec_d3_const, dec_d3_pert, dec_d2_const, dec_d2_pert):
            t = dec.op.torus
            for _ in range(200):
                phi = rng.standard_normal((t.sites, t.m))
                phi -= phi.mean(axis=0)
                nn = float(np.vdot(phi, phi))
                for lvl in dec.apply_all_levels_raw(phi):
                    worst = min(worst, float(np.vdot(lvl, phi)) / nn)
        dense_min = 0.0
        for op in side5_ops.values():
            dec = build_decomposition(op)
            for mat in dense_level_matrices(dec):
                dense_min = min(dense_min, float(np.linalg.eigvalsh(mat)[0]))
        ok = worst >= -1e-7 and dense_min >= -1e-7
        verdict(3, ok, f"min rayleigh over 200 probes x 4 configs = {worst:.2e}, "
                f"min dense eigenvalue (side-5 d=2) = {dense_min:.2e} "
                "(floor -1e-7)")

    def test_4_decay_exponents(self, dec_d3_const, dec_d3_pert):
        details = []
        ok = True
        for name, dec in [("const", dec_d3_const), ("pert", dec_d3_pert)]:
            rep = level_decay_report(dec, [0], (0, 1), slope_slack=1.0)
            for a in (0, 1):
                dec_ok = rep.strictly_decreasing(a)
                slope = rep.slopes[a]["claimed_fit"]
                target = rep.slopes[a]["target"]
                ok = ok and dec_ok and slope <= target
                details.append(f"{name} |a|={a} slope={slope:.2f}<= {target:.2f}"
                               f" strict={dec_ok}")
        verdict(4, ok, "level decay (d=3, L=3, N=2): " + "; ".join(details))

    def test_5_green_decay_side27(self):
        t0 = time.time()
        op = perturbed_operator(3, L=3, N=3)
        t = op.torus
        col = op.green_column(0, 1e-10)
        dist = distances_from(t, (0, 0, 0))
        vals = np.abs(col.values[:, 0, 0])
        mask = (dist >= 1) & (dist <= 13)
        product = vals[mask] * dist[mask].astype(float) ** (t.d - 2)
        bound = float(product.max())
        mono = True
        for axis in range(3):
            ray = []
            for s in range(1, 14):
                c = [0, 0, 0]
                c[axis] = s
                ray.append(col.values[t.index_of(c), 0, 0])
            mono = mono and all(b < a for a, b in zip(ray, ray[1:]))
        elapsed = time.time() - t0
        ok = np.isfinite(bound) and bound > 0 and mono and elapsed <= 900
        verdict(5, ok, f"side-27 green decay: sup |K|*dist^(d-2) = {bound:.4f} "
                f"over dist 1..13, rays monotone={mono}, {elapsed:.1f}s "
                "(budget 900s)")

    def test_6_regularity_suite(self, op_d2_pert, op_d3_pert):
        records = regularity_suite(100)
        failures = [r for r in records if r.asserted and not r.passed]
        # additional generated harmonic families for the interior estimate
        extra = []
        rng = np.random.default_rng(17)
        for op, d in [(op_d2_pert, 2), (op_d3_pert, 3)]:
            t = op.torus
            for seed in range(5):
                phi = LatticeField(
                    t, rng.standard_normal((t.sites, 1))).project_mean_zero()
                u = harmonic_extension(op, Cube((0,) * d, 8), phi)
                extra.append(caccioppoli_check(op, u, Cube((0,) * d, 7),
                                               Cube((2,) * d, 3)))
        u = green_pair_difference(op_d3_pert, (0, 0, 0), (0, 0, 1))
        extra.append(caccioppoli_check(op_d3_pert, u, Cube((2, 2, 3), 6),
                                       Cube((4, 4, 5), 2)))
        opc = identity_operator(2)
        coords = opc.torus.all_coords().astype(float)
        poly = LatticeField(opc.torus,
                            (coords[:, 0] ** 2 - coords[:, 1] ** 2
                             ).reshape(-1, 1))
        extra.append(caccioppoli_check(opc, poly, Cube((1, 1), 6),
                                       Cube((3, 3), 2)))
        extra_failures = [r for r in extra if not r.passed]
        ok = not failures and not extra_failures
        verdict(6, ok, f"regularity corpus: {len(records)} records over 100 "
                f"seeds, {len(failures)} failures; "
                f"{len(extra)} generated harmonic checks, "
                f"{len(extra_failures)} failures")

    def test_7_sensitivity(self, op_d3_const):
        t = op_d3_const.torus
        S = np.zeros((3, 3))
        S[0, 0], S[1, 1], S[0, 1] = 0.3, -0.2, 0.1
        S[1, 0] = S[0, 1]
        direction = CoefficientField.constant(t, S)
        probe = DirectionalProbe(op_d3_const.coefficients, direction,
                                 (1e-3, 5e-4), 1, 0)
        est, info = green_derivative_estimate(probe)
        oracle = green_derivative_oracle(probe)
        scale = float(np.linalg.norm(oracle))
        rel = float(np.linalg.norm(info["estimates"][1e-3] - oracle)) / scale
        ratio = (float(np.linalg.norm(info["estimates"][1e-3] - oracle))
                 / float(np.linalg.norm(info["estimates"][5e-4] - oracle)))
        maxima = []
        for k in (1, 2, 3):
            lvl_probe = DirectionalProbe(op_d3_const.coefficients, direction,
                                         (1e-3,), k, 0)
            col, _ = directional_derivative(lvl_probe)
            maxima.append(float(np.abs(col.values).max()))
        decreasing = all(b < a for a, b in zip(maxima, maxima[1:]))
        ok = rel <= 1e-4 and 3.0 <= ratio <= 5.0 and decreasing
        verdict(7, ok, f"green derivative vs resolvent oracle rel={rel:.2e} "
                f"(tol 1e-4 at h=1e-3), richardson={ratio:.2f} in [3,5], "
                f"level maxima {['%.3e' % v for v in maxima]} decreasing="
                f"{decreasing}")

    def test_8_sampling(self, side5_ops, tmp_path):
        op = side5_ops["const"]
        t = op.torus
        n = t.sites
        dec = build_decomposition(op)
        mats = dense_level_matrices(dec)
        G = dense_green(op)
        rng = np.random.default_rng(55)
        count = 10000
        total = np.zeros((count, n))
        for mat in mats:
            w, V = np.linalg.eigh(mat)
            factor = V * np.sqrt(np.clip(w, 0.0, None))
            total += (factor @ rng.standard_normal((n, count))).T
        emp = total.T @ total / count
        se = np.sqrt((np.outer(np.diag(G), np.diag(G)) + G ** 2) / count)
        dev = np.abs(emp - G) / se
        max_dev = float(dev.max())
        # byte-exact determinism through the command line
        cfg = {"coefficients": {"d": 2, "m": 1, "L": 5, "N": 1,
                                "A0": np.eye(2).tolist(), "epsilon": 0.0,
                                "modes": []},
               "sources": [0]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        arch = tmp_path / "arch"
        assert cli_main(["decompose", "--config", str(cfg_path),
                         "--out", str(arch)]) == 0
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert cli_main(["sample", str(arch), "--count", "64",
                             "--seed", "9", "--out", str(out)]) == 0
            outs.append((out / "samples.bin").read_bytes())
        deterministic = outs[0] == outs[1]
        ok = max_dev <= 5.0 and deterministic
        verdict(8, ok, f"10000-sample covariance vs dense inverse: max "
                f"deviation {max_dev:.2f} standard errors (limit 5); "
                f"fixed-seed byte-identical={deterministic}")

    def test_9_oracle_equivalence(self):
        worst = 0.0
        cases = []
        rng = np.random.default_rng(77)
        for op in (perturbed_operator(2, L=3, N=2),
                   perturbed_operator(2, L=5, N=1),
                   perturbed_operator(3, L=3, N=1),
                   identity_operator(3, L=3, N=2)):
            t = op.torus
            n = t.sites * t.m
            dec = build_decomposition(
                op, replace(DecompositionPlan.default(t), solver_tol=1e-12))
            G = dense_green(op)
            P = mean_projector(t)
            phi = rng.standard_normal((t.sites, t.m))
            phi -= phi.mean(axis=0)
            v = phi.reshape(n)
            solve, _ = op.solve_green_raw(phi, 1e-12)
            rel = np.linalg.norm(solve.reshape(n) - G @ v) / np.linalg.norm(G @ v)
            worst = max(worst, rel)
            # cube projector and averaging operator against dense assembly
            from frdkit.operators import dense_matrix
            Ad = dense_matrix(op)
            cube = Cube((0,) * t.d, min(3, t.side - 1))
            proj = CubeProjector(op, cube)
            idx = proj.site_indices
            dof = np.sort(np.concatenate([idx * t.m + a for a in range(t.m)]))
            E = np.zeros((n, dof.size))
            E[dof, np.arange(dof.size)] = 1.0
            dense_p = E @ np.linalg.solve(E.T @ Ad @ E, E.T @ (Ad @ v))
            rel = (np.linalg.norm(proj.project_raw(phi).reshape(n) - dense_p)
                   / max(np.linalg.norm(dense_p), 1e-30))
            worst = max(worst, rel)
            # averaged local solves W against smooth = W A, and every level
            # against its dense form: R (2W - W A W) R^T when ranged, with
            # R = (I - W_1 A)...(I - W_{k-1} A), and R G R^T for the last
            basis = np.eye(n).reshape(t.sites, t.m, n)
            R = np.eye(n)
            for k, sm in enumerate(dec.smoothers, start=1):
                W = sm.solve_all_translates(basis).reshape(n, n)
                out = sm.smooth_raw(phi).reshape(n)
                rel = (np.linalg.norm(out - W @ Ad @ v)
                       / max(np.linalg.norm(W @ Ad @ v), 1e-30))
                worst = max(worst, rel)
                dense_out = P @ R @ (2 * W - W @ Ad @ W) @ R.T @ v
                level = dec.apply_level_raw(k, phi).reshape(n)
                rel = (np.linalg.norm(level - dense_out)
                       / max(np.linalg.norm(dense_out), 1e-30))
                worst = max(worst, rel)
                R = R @ (np.eye(n) - W @ Ad)
            dense_out = P @ R @ G @ R.T @ v
            level = dec.apply_level_raw(dec.plan.levels, phi).reshape(n)
            rel = (np.linalg.norm(level - dense_out)
                   / max(np.linalg.norm(dense_out), 1e-30))
            worst = max(worst, rel)
            cases.append(f"{t.d}d/side{t.side}")
        ok = worst <= 1e-9
        verdict(9, ok, f"matrix-free vs dense oracle on {cases}: worst rel "
                f"{worst:.2e} (tol 1e-9)")

    def test_10_desk_scale_default_plan(self, tmp_path):
        # The README's desk scale: perturbed d = 3, side 27, default plan
        # (cube sides 1, 3, 9).  The range claim L^k/2 of that plan fails at
        # level 2 (its kernel is flat only from 2(1 + 3) = 8 > 4.5); the
        # failure is pinned here as it stands, not hidden.
        t0 = time.time()
        eye = np.eye(3).tolist()
        cfg = {"coefficients": {"d": 3, "m": 1, "L": 3, "N": 3, "A0": eye,
                                "epsilon": 0.05,
                                "modes": [{"frequency": [1, 0, 0], "amplitude": eye}],
                                "budget": 20.0},
               "sources": [0]}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        arch, out = tmp_path / "arch", tmp_path / "reports"
        decompose = cli_main(["decompose", "--config", str(cfg_path),
                              "--out", str(arch)])
        decay = cli_main(["verify", str(arch), "--suite", "decay", "--out", str(out)])
        range_code = cli_main(["verify", str(arch), "--suite", "range",
                               "--out", str(out)])
        records = [json.loads(line) for line in
                   (out / "verify_range.jsonl").read_text().splitlines()]
        failed = sorted(r["params"]["level"] for r in records
                        if r["asserted"] and not r["pass"])
        elapsed = time.time() - t0
        ok = (decompose == 0 and decay == 0 and range_code == 1
              and failed == [2] and elapsed <= 120)
        verdict(10, ok, f"d=3 side-27 perturbed default plan: decompose exit "
                f"{decompose}, verify decay exit {decay}, verify range exit "
                f"{range_code} with failed levels {failed} (known: radius "
                f"L^k/2 fails at level 2), {elapsed:.1f}s (budget 120s)")
