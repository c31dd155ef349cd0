"""Each output check accepts frdkit's real output and rejects a wrong one.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from frdkit import cli  # noqa: E402


@pytest.fixture(scope="module")
def oracle(tmp_path_factory) -> Path:
    """An all-source side-9 archive with its verify report and samples."""
    work = tmp_path_factory.mktemp("oracle")
    config = work / "config.json"
    config.write_text(json.dumps(workloads.config("oracle-s9", 1)))
    archive = work / "archive"
    commands = workloads.session("oracle-s9", 1, str(config), str(archive))
    for argv in commands:
        if argv[:3] == ["verify", str(archive), "--suite"]:
            argv[3] = "range"
        assert cli.main(argv) == 0
    return archive


def tampered(arch: checks.Archive, key, site, amount) -> checks.Archive:
    arch.kernels = dict(arch.kernels)
    values = arch.kernels[key].copy()
    values[site] += amount
    arch.kernels[key] = values
    return arch


def test_real_outputs_pass(oracle):
    arch = checks.Archive(oracle)
    assert checks.check_telescoping(arch) < checks.TELESCOPING_TOL
    assert checks.check_level1_range(arch) < checks.RANGE_TOL
    assert checks.check_level_matrices(checks.level_matrices(arch)) < checks.MATRIX_TOL
    samples, _ = checks.read_table(oracle / "samples" / "samples")
    C = np.linalg.pinv(checks.dense_operator(arch))
    assert checks.check_samples(samples, C) < checks.SAMPLE_Z
    assert checks.check_reports(oracle / "reports" / "verify_range.jsonl", True) > 0
    checks.check_reports(oracle / "reports" / "report.jsonl", False)


def test_stencil_matches_program(oracle):
    from frdkit.decomposition import load_archive
    arch = checks.Archive(oracle)
    u = np.random.default_rng(0).standard_normal((arch.sites, arch.m, 1))
    ours = checks.apply_operator(arch.coefficients, u, arch.d, arch.side)[..., 0]
    np.testing.assert_allclose(ours, load_archive(oracle).op.apply_raw(u[..., 0]),
                               atol=1e-12)


def test_edited_table_is_rejected(oracle, tmp_path):
    stem = tmp_path / "kernel"
    for suffix in (".bin", ".json"):
        shutil.copy(oracle / f"kernel_L1_S0{suffix}", stem.with_suffix(suffix))
    raw = bytearray(stem.with_suffix(".bin").read_bytes())
    raw[8] ^= 1
    stem.with_suffix(".bin").write_bytes(bytes(raw))
    with pytest.raises(checks.CheckError):
        checks.read_table(stem)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_telescoping_rejects_one_changed_entry(oracle, level):
    arch = tampered(checks.Archive(oracle), (level, 40), 13, 1e-6)
    with pytest.raises(checks.CheckError):
        checks.check_telescoping(arch)


def test_range_rejects_far_bump(oracle):
    arch = checks.Archive(oracle)
    far_site = int(np.argmax(checks.sup_distances(0, arch.d, arch.side)))
    scale = np.abs(arch.kernels[(1, 0)]).max()
    with pytest.raises(checks.CheckError):
        checks.check_level1_range(tampered(arch, (1, 0), far_site, 1e-4 * scale))


def test_level_matrices_reject_asymmetry_and_negative_direction(oracle):
    mats = checks.level_matrices(checks.Archive(oracle))
    asym = [M.copy() for M in mats]
    asym[1][3, 5] += 1e-6 * np.abs(asym[1]).max()
    with pytest.raises(checks.CheckError):
        checks.check_level_matrices(asym)
    v = np.zeros(mats[0].shape[0])
    v[0], v[1] = 1.0, -1.0
    v /= np.linalg.norm(v)
    # v·M'v = -1e-3·λmax: symmetric, with one clearly negative direction
    shift = v @ mats[0] @ v + 1e-3 * np.linalg.eigvalsh(mats[0])[-1]
    negative = [mats[0] - shift * np.outer(v, v)] + mats[1:]
    with pytest.raises(checks.CheckError):
        checks.check_level_matrices(negative)
    incomplete = checks.Archive(oracle)
    incomplete.sources = incomplete.sources[:-1]
    with pytest.raises(checks.CheckError):
        checks.level_matrices(incomplete)


def test_samples_reject_wrong_covariance(oracle):
    arch = checks.Archive(oracle)
    C = np.linalg.pinv(checks.dense_operator(arch))
    count = workloads.SAMPLE_COUNT
    rng = np.random.default_rng(3)
    w, V = np.linalg.eigh(C)
    factor = V * np.sqrt(np.clip(w, 0.0, None))

    def draw(cov_factor):
        return (cov_factor @ rng.standard_normal((C.shape[0], count))).T

    checks.check_samples(draw(factor), C)
    level1 = checks.level_matrices(arch)[0]
    w1, V1 = np.linalg.eigh(level1)
    for wrong in (1.1 * factor, V1 * np.sqrt(np.clip(w1, 0.0, None))):
        with pytest.raises(checks.CheckError):
            checks.check_samples(draw(wrong), C)


def test_reports_reject_failed_assertion(tmp_path):
    good = {"check": "finite_range", "asserted": True, "pass": True}
    path = tmp_path / "verify.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, **{"pass": False})))
    with pytest.raises(checks.CheckError):
        checks.check_reports(path, True)
    path.write_text(json.dumps(dict(good, asserted=False)) + "\n")
    with pytest.raises(checks.CheckError):
        checks.check_reports(path, True)
    path.write_text("")
    with pytest.raises(checks.CheckError):
        checks.check_reports(path, False)


def test_reports_reject_program_range_failure(tmp_path):
    """The default plan at d = 2, side 27 fails its level-2 range claim."""
    cfg = workloads.config("oracle-s9", 1)
    cfg["coefficients"] = dict(cfg["coefficients"], N=3)
    cfg["sources"] = [0]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    archive = tmp_path / "archive"
    assert cli.main(["decompose", "--config", str(config), "--out", str(archive)]) == 0
    assert cli.main(["verify", str(archive), "--suite", "range"]) == 1
    with pytest.raises(checks.CheckError):
        checks.check_reports(archive / "reports" / "verify_range.jsonl", True)
