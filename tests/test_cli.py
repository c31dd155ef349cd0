import csv
import json
import os

import numpy as np
import pytest

from frdkit import cli, regularity
from frdkit.cli import main
from frdkit.decomposition import Decomposition, load_archive
from frdkit.operators import DEFAULT_TOL, ConvergenceError, EllipticOperator, SolveReport
from frdkit.sensitivity import PROBE_TOL

BASE_CONFIG = {
    "coefficients": {
        "d": 2, "m": 1, "L": 3, "N": 1,
        "A0": [[1.0, 0.0], [0.0, 1.0]],
        "epsilon": 0.0,
        "modes": [],
    },
    "sources": [0],
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def perturbed_config(d=2, N=2, sources=(0,)):
    md = d
    eye = np.eye(md).tolist()
    return {
        "coefficients": {
            "d": d, "m": 1, "L": 3, "N": N,
            "A0": eye,
            "epsilon": 0.05,
            "modes": [{"frequency": [1] + [0] * (d - 1), "amplitude": eye}],
            "budget": 20.0,
        },
        "sources": list(sources),
    }


def probe_config(**probe):
    """The perturbed d = 2, side 9 config with a probe section."""
    cfg = perturbed_config()
    cfg["probe"] = {"direction_matrix": [[0.3, 0.1], [0.1, -0.2]],
                    "steps": [1e-3, 5e-4], "level": 1, "source": 0, **probe}
    return cfg


def spy_solves(monkeypatch):
    """Record the tolerance of every Green solve from now on."""
    tols = []
    original = EllipticOperator.solve_green_raw

    def spy(self, f, tol=DEFAULT_TOL, *args, **kwargs):
        tols.append(tol)
        return original(self, f, tol, *args, **kwargs)
    monkeypatch.setattr(EllipticOperator, "solve_green_raw", spy)
    return tols


def edited(cfg, path, value):
    """A copy of ``cfg`` with the value at ``path`` (keys and list indices) replaced."""
    if not path:
        return value
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
    node[path[-1]] = value
    return cfg


#: Malformed config values: each raised an uncaught TypeError or
#: RuntimeError, was silently coerced to another value, was ignored by
#: ``decompose``, or ran a solve at a tolerance no solve can meet.
MALFORMED = [
    ((), 5),
    (("coefficients",), 5),
    (("plan",), 5),
    (("probe",), 5),
    (("coefficients", "d"), [2]),
    (("coefficients", "d"), "2"),
    (("coefficients", "d"), 2.5),
    (("coefficients", "m"), None),
    (("coefficients", "epsilon"), None),
    (("coefficients", "epsilon"), [0.1]),
    (("coefficients", "budget"), None),
    (("coefficients", "modes"), 5),
    (("coefficients", "modes"), [5]),
    (("coefficients", "modes", 0, "frequency"), 5),
    (("coefficients", "modes", 0, "frequency"), [1.5, 0]),
    (("coefficients", "modes", 0, "phase"), None),
    (("plan", "cube_sides"), 5),
    (("plan", "cube_sides"), [1.5, 3]),
    (("plan", "range_radii"), 5),
    (("plan", "range_radii"), [None]),
    (("plan", "solver_tol"), None),
    (("plan", "solver_tol"), [1]),
    (("probe", "steps"), 5),
    (("probe", "steps"), [None]),
    (("probe", "scan_steps"), 5),
    (("coefficients", "epsilon"), float("nan")),
    (("coefficients", "epsilon"), float("inf")),
    (("coefficients", "budget"), float("nan")),
    (("coefficients", "A0"), float("-inf")),
    (("coefficients", "modes", 0, "amplitude"), [[float("nan"), 0], [0, 1]]),
    (("plan", "solver_tol"), float("nan")),
    (("plan", "solver_tol"), 0),
    (("plan", "solver_tol"), -1.0),
    (("plan", "solver_tol"), float("inf")),
    (("plan", "range_radii"), [-3, 4.5]),
]


class TestConfigSchema:
    @pytest.mark.parametrize("command", ["decompose", "probe"])
    @pytest.mark.parametrize("path,value", MALFORMED, ids=[
        ".".join(map(str, ("config",) + path)) + "=" + json.dumps(value)
        for path, value in MALFORMED])
    def test_malformed_value_exits_2_before_any_solve(self, tmp_path, capsys,
                                                      monkeypatch, command,
                                                      path, value):
        tols = spy_solves(monkeypatch)
        cfg = write_config(tmp_path, edited(probe_config(), path, value))
        out = tmp_path / "x"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "config"
        assert not tols and not out.exists()

    def test_scalar_A0_accepted(self, tmp_path):
        cfg = write_config(tmp_path, edited(BASE_CONFIG, ("coefficients", "A0"), 1.0))
        assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "a")]) == 0

    @pytest.mark.parametrize("path,value,matrix", [
        (("coefficients", "A0"), 2, [[2, 0], [0, 2]]),
        (("coefficients", "modes", 0, "amplitude"), 0.5, [[0.5, 0], [0, 0.5]])])
    def test_scalar_matrix_builds_the_matrix_field(self, tmp_path, path, value, matrix):
        # budget omitted: the default budget is read off A0
        cfg = edited(perturbed_config(), ("coefficients", "epsilon"), 1e-4)
        del cfg["coefficients"]["budget"]
        hashes = []
        for name, entry in (("scalar", value), ("matrix", matrix)):
            path_cfg = write_config(tmp_path, edited(cfg, path, entry), f"{name}.json")
            out = tmp_path / name
            assert main(["decompose", "--config", path_cfg, "--out", str(out)]) == 0
            hashes.append(json.loads((out / "manifest.json").read_text())
                          ["coefficient_hash"])
        assert hashes[0] == hashes[1]


class TestDecompose:
    def test_minimal_run(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "arch"
        assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["levels"] == 2
        assert (out / "kernel_L1_S0.bin").exists()

    def test_even_base_scale_rejected(self, tmp_path, capsys):
        bad = {"coefficients": dict(BASE_CONFIG["coefficients"], L=4)}
        cfg = write_config(tmp_path, bad)
        assert main(["decompose", "--config", cfg,
                     "--out", str(tmp_path / "x")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"

    def test_unknown_key_rejected(self, tmp_path):
        bad = dict(BASE_CONFIG, radius=3)
        cfg = write_config(tmp_path, bad)
        assert main(["decompose", "--config", cfg,
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("key", ["threads", "seed", "output_dir"])
    def test_removed_config_keys_rejected(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, dict(BASE_CONFIG, **{key: 1}))
        assert main(["decompose", "--config", cfg,
                     "--out", str(tmp_path / "x")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and key in err["message"]

    @pytest.mark.parametrize("argv", [["decompose", "--threads", "2"],
                                      ["decompose", "--seed", "7"],
                                      ["probe", "--seed", "2"],
                                      ["decompose", "--tol", "1e-8"],
                                      ["probe", "--tol", "1e-8"]])
    def test_removed_flags_rejected(self, tmp_path, argv):
        cfg = write_config(tmp_path, BASE_CONFIG)
        with pytest.raises(SystemExit) as err:
            main(argv + ["--config", cfg])
        assert err.value.code == 2

    @pytest.mark.parametrize("sources", [[-1], [81], [1.5], [True], [[0, 1]], 5])
    def test_bad_sources_exit_2_before_any_solve(self, tmp_path, capsys,
                                                 monkeypatch, sources):
        tols = spy_solves(monkeypatch)
        cfg = write_config(tmp_path, dict(perturbed_config(), sources=sources))
        out = tmp_path / "x"
        assert main(["decompose", "--config", cfg, "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not tols and not out.exists()

    def test_bad_probe_section_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, probe_config(level=4))
        out = tmp_path / "x"
        assert main(["decompose", "--config", cfg, "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not out.exists()

    def test_deterministic_archives(self, tmp_path):
        # perturbed d=3 build: identical configs give identical bytes
        os.environ["SOURCE_DATE_EPOCH"] = "1700000000"
        try:
            cfg = write_config(tmp_path, perturbed_config(d=3, N=2))
            a, b = tmp_path / "a", tmp_path / "b"
            assert main(["decompose", "--config", cfg, "--out", str(a)]) == 0
            assert main(["decompose", "--config", cfg, "--out", str(b)]) == 0
            manifest = json.loads((a / "manifest.json").read_text())
            assert manifest["levels"] == 3
            for name in sorted(p.name for p in a.iterdir()):
                assert (a / name).read_bytes() == (b / name).read_bytes(), name
        finally:
            del os.environ["SOURCE_DATE_EPOCH"]


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("arch")
    cfg = write_config(tmp, perturbed_config())
    out = tmp / "archive"
    assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def sample_archive(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("samp")
    cfg = {
        "coefficients": {"d": 2, "m": 1, "L": 5, "N": 1,
                         "A0": [[1.0, 0.0], [0.0, 1.0]],
                         "epsilon": 0.0, "modes": []},
        "sources": [0],
    }
    path = write_config(tmp, cfg)
    out = tmp / "archive"
    assert main(["decompose", "--config", path, "--out", str(out)]) == 0
    return out


class TestVerify:
    @pytest.mark.parametrize("suite", ["range", "positivity", "reconstruction",
                                       "decay"])
    def test_suites_pass(self, archive, tmp_path, suite):
        out = tmp_path / suite
        assert main(["verify", str(archive), "--suite", suite,
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader((out / f"verify_{suite}.csv").open()))
        assert rows
        assert set(rows[0]) == {"check", "params", "lhs", "rhs", "ratio", "pass"}

    def test_jsonl_well_formed(self, archive, tmp_path):
        out = tmp_path / "rr"
        assert main(["verify", str(archive), "--suite", "range",
                     "--out", str(out)]) == 0
        lines = (out / "verify_range.jsonl").read_text().splitlines()
        for line in lines:
            rec = json.loads(line)
            assert "check" in rec and "pass" in rec

    def test_corrupt_archive_distinct_exit(self, archive, tmp_path, capsys):
        import shutil
        broken = tmp_path / "broken"
        shutil.copytree(archive, broken)
        victim = broken / "kernel_L1_S0.bin"
        victim.write_bytes(victim.read_bytes()[:-8])
        assert main(["verify", str(broken), "--suite", "range"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "integrity"

    def test_constant_A_archive_all_suites_pass(self, tmp_path):
        cfg_obj = perturbed_config()
        cfg_obj["coefficients"]["epsilon"] = 0.0
        cfg_obj["coefficients"]["modes"] = []
        cfg = write_config(tmp_path, cfg_obj)
        arch = tmp_path / "arch"
        assert main(["decompose", "--config", cfg, "--out", str(arch)]) == 0
        for suite in ("range", "positivity", "reconstruction", "decay"):
            assert main(["verify", str(arch), "--suite", suite,
                         "--out", str(tmp_path / suite)]) == 0

    def test_unconverged_extraction_exits_1(self, tmp_path, capsys):
        # no stored source: reconstruction extracts site 0 and its solve fails
        cfg = perturbed_config(d=3, N=1, sources=())
        cfg["plan"] = {"solver_tol": 1e-30}
        arch = tmp_path / "arch"
        assert main(["decompose", "--config", write_config(tmp_path, cfg),
                     "--out", str(arch)]) == 0
        out = tmp_path / "out"
        assert main(["verify", str(arch), "--suite", "reconstruction",
                     "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "solver"
        assert not out.exists()

    @pytest.mark.parametrize("suite", ["reconstruction", "all"])
    def test_rescaled_kernel_value_fails(self, archive, tmp_path, capsys, suite):
        # one value of one table times 1.01, every hash rewritten to match
        from frdkit.tableio import read_table, write_table
        broken = tampered_copy(archive, tmp_path)
        values, header = read_table(broken / "kernel_L2_S0")
        values.flat[np.abs(values).argmax()] *= 1.01
        new = write_table(broken / "kernel_L2_S0", values, header["meta"])
        edit_manifest(broken, lambda m: m["kernels"]["2:0"].update(sha256=new["sha256"]))
        out = tmp_path / "r"
        assert main(["verify", str(broken), "--suite", suite, "--out", str(out)]) == 1
        assert "FAIL reconstruction" in capsys.readouterr().out
        assert main(["verify", str(archive), "--suite", "reconstruction",
                     "--out", str(out)]) == 0

    def test_reconstruction_and_report_read_the_archive(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, perturbed_config(d=3, N=2, sources=(0, 40)))
        arch = tmp_path / "arch"
        assert main(["decompose", "--config", cfg, "--out", str(arch)]) == 0
        tols = spy_solves(monkeypatch)
        assert main(["verify", str(arch), "--suite", "reconstruction",
                     "--out", str(tmp_path / "v")]) == 0
        assert main(["report", str(arch), "--out", str(tmp_path / "r")]) == 0
        assert not tols
        rec = json.loads((tmp_path / "v" / "verify_reconstruction.jsonl").read_text())
        assert rec["params"] == {"sources": 2} and 0.0 < rec["lhs"] <= rec["rhs"]

    def test_decay_single_depth_report_only(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "arch1"
        assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0
        rep = tmp_path / "r"
        assert main(["verify", str(out), "--suite", "decay",
                     "--out", str(rep)]) == 0
        recs = [json.loads(l) for l in
                (rep / "verify_decay.jsonl").read_text().splitlines()]
        asserted = [r for r in recs if r.get("asserted")]
        assert not asserted  # single ranged level: report-only


def tampered_copy(archive, tmp_path):
    import shutil
    broken = tmp_path / "tampered"
    shutil.copytree(archive, broken)
    return broken


def edit_manifest(path, edit):
    manifest = json.loads((path / "manifest.json").read_text())
    edit(manifest)
    (path / "manifest.json").write_text(json.dumps(manifest))


def assert_integrity_exit(path, capsys):
    assert main(["verify", str(path), "--suite", "range"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "integrity"


class TestArchiveIntegrity:
    def test_consistent_kernel_rewrite_exits_3(self, archive, tmp_path, capsys):
        # a kernel table rewritten to a constant, with a header that matches
        # its new bytes, still differs from the hash in the manifest
        from frdkit.tableio import read_table, write_table
        broken = tampered_copy(archive, tmp_path)
        values, header = read_table(broken / "kernel_L1_S0")
        write_table(broken / "kernel_L1_S0", np.full_like(values, 0.25),
                    header["meta"])
        read_table(broken / "kernel_L1_S0")  # consistent on its own
        assert_integrity_exit(broken, capsys)

    def test_kernel_under_wrong_key_exits_3(self, archive, tmp_path, capsys):
        # the level-2 table, with its true hash, filed under level 1
        broken = tampered_copy(archive, tmp_path)
        edit_manifest(broken, lambda m: m["kernels"].update(
            {"1:0": m["kernels"]["2:0"]}))
        assert_integrity_exit(broken, capsys)

    @pytest.mark.parametrize("stem", ["../outside/kernel_L1_S0", "sub/kernel_L1_S0"])
    def test_stem_with_path_exits_3(self, archive, tmp_path, capsys, stem):
        # a genuine copy of the table sits where the stem points
        import shutil
        broken = tampered_copy(archive, tmp_path)
        (broken / stem).parent.mkdir()
        for suffix in (".bin", ".json"):
            shutil.copy(broken / f"kernel_L1_S0{suffix}", broken / f"{stem}{suffix}")
        edit_manifest(broken, lambda m: m["kernels"]["1:0"].update(stem=stem))
        assert_integrity_exit(broken, capsys)

    @pytest.mark.parametrize("field", ["format", "torus", "plan", "levels",
                                       "sources", "coefficient_hash", "kernels"])
    @pytest.mark.parametrize("how", ["missing", "wrong type"])
    def test_manifest_schema_exits_3(self, archive, tmp_path, capsys, field, how):
        broken = tampered_copy(archive, tmp_path)

        def edit(m):
            if how == "missing":
                del m[field]
            else:
                m[field] = True if isinstance(m[field], str) else "x"
        edit_manifest(broken, edit)
        assert_integrity_exit(broken, capsys)

    @pytest.mark.parametrize("command", ["verify", "report"])
    def test_kernel_source_off_torus_exits_3(self, archive, tmp_path, capsys,
                                             command):
        # the level-1 table rewritten for source 999 (the torus has 81
        # sites), consistent with its header and the manifest
        from frdkit.tableio import read_table, write_table
        broken = tampered_copy(archive, tmp_path)
        values, header = read_table(broken / "kernel_L1_S0")
        new = write_table(broken / "kernel_L1_S999", values,
                          dict(header["meta"], source=999))

        def edit(m):
            del m["kernels"]["1:0"]
            m["kernels"]["1:999"] = {"stem": "kernel_L1_S999",
                                     "sha256": new["sha256"]}
        edit_manifest(broken, edit)
        assert main([command, str(broken), "--out", str(tmp_path / "r")]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "integrity"

    @pytest.mark.parametrize("path,value", [(("torus", "d"), 2.5),
                                            (("plan", "cube_sides"), "x"),
                                            (("kernels", "1:0", "stem"), 5)])
    def test_manifest_nested_type_exits_3(self, archive, tmp_path, capsys,
                                          path, value):
        broken = tampered_copy(archive, tmp_path)
        edit_manifest(broken, lambda m: m.update(edited(m, path, value)))
        assert_integrity_exit(broken, capsys)

    @pytest.mark.parametrize("path,value", [(("plan", "solver_tol"), float("nan")),
                                            (("plan", "solver_tol"), 0.0),
                                            (("plan", "solver_tol"), -1.0),
                                            (("plan", "range_radii"), [-3.0, 4.5]),
                                            (("solver", "residual"), float("inf"))])
    def test_manifest_value_out_of_range_exits_3(self, archive, tmp_path, capsys,
                                                 path, value):
        broken = tampered_copy(archive, tmp_path)
        edit_manifest(broken, lambda m: m.update(edited(m, path, value)))
        assert_integrity_exit(broken, capsys)

    def test_manifest_extra_key_loads(self, archive, tmp_path):
        # archives written while the threads option existed carry it
        copy = tampered_copy(archive, tmp_path)
        edit_manifest(copy, lambda m: m.update(threads=1))
        assert main(["verify", str(copy), "--suite", "range",
                     "--out", str(tmp_path / "r")]) == 0

    def test_manifest_torus_mismatch_exits_3(self, archive, tmp_path, capsys):
        broken = tampered_copy(archive, tmp_path)
        edit_manifest(broken, lambda m: m["torus"].update(N=1))
        assert_integrity_exit(broken, capsys)

    def test_manifest_records_solver(self, archive):
        manifest = json.loads((archive / "manifest.json").read_text())
        solver = manifest["solver"]
        assert isinstance(solver["iterations"], int) and solver["iterations"] > 0
        assert 0.0 < solver["residual"] <= manifest["plan"]["solver_tol"]


def test_help_exits_zero():
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0


@pytest.mark.parametrize("argv", [["sample", "--count", "-1"],
                                  ["sample", "--count", "4", "--seed", "-1"],
                                  ["verify", "--suite", "positivity", "--seed", "-2"]])
def test_negative_count_or_seed_is_a_usage_error(sample_archive, tmp_path, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main(argv[:1] + [str(sample_archive)] + argv[1:] + ["--out", str(out)])
    assert err.value.code == 2 and not out.exists()


class TestVerifyDeterminism:
    def test_reports_byte_identical(self, archive, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["verify", str(archive), "--suite", "positivity",
                         "--out", str(out), "--seed", "3"]) == 0
        for name in ("verify_positivity.jsonl", "verify_positivity.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestReport:
    def test_report_writes_records(self, tmp_path):
        cfg = write_config(tmp_path, perturbed_config(d=3, N=2))
        arch = tmp_path / "arch"
        assert main(["decompose", "--config", cfg, "--out", str(arch)]) == 0
        out = tmp_path / "rep"
        assert main(["report", str(arch), "--out", str(out)]) == 0
        recs = [json.loads(l) for l in
                (out / "report.jsonl").read_text().splitlines()]
        checks = {r["check"] for r in recs}
        assert {"level_decay", "far_field_spread", "green_decay"} <= checks


    def test_solver_failure_exits_1(self, tmp_path, monkeypatch, capsys):
        # no stored source: report extracts the kernels at site 0
        cfg = write_config(tmp_path, perturbed_config(d=3, N=1, sources=()))
        arch = tmp_path / "arch"
        assert main(["decompose", "--config", cfg, "--out", str(arch)]) == 0

        def diverging(self, f, tol=DEFAULT_TOL, *args, **kwargs):
            raise ConvergenceError("no convergence", SolveReport(1, 1.0, tol))
        monkeypatch.setattr(EllipticOperator, "solve_green_raw", diverging)
        assert main(["report", str(arch), "--out", str(tmp_path / "rep")]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "solver"

    def test_unconverged_extraction_exits_1(self, tmp_path, capsys):
        cfg = perturbed_config(d=3, N=1, sources=())
        cfg["plan"] = {"solver_tol": 1e-30}
        arch = tmp_path / "arch"
        assert main(["decompose", "--config", write_config(tmp_path, cfg),
                     "--out", str(arch)]) == 0
        out = tmp_path / "rep"
        assert main(["report", str(arch), "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "solver"
        assert not out.exists()

    def test_missing_source_takes_one_pass_and_one_solve(self, tmp_path, monkeypatch):
        # every level of site 0 is extracted at once, not one level at a time
        cfg = write_config(tmp_path, perturbed_config(d=3, N=1, sources=()))
        arch = tmp_path / "arch"
        assert main(["decompose", "--config", cfg, "--out", str(arch)]) == 0
        calls = {"passes": 0, "solves": []}
        passes, solve = Decomposition._levels_raw, EllipticOperator.solve_green_raw

        def counted_pass(self, *args, **kwargs):
            calls["passes"] += 1
            return passes(self, *args, **kwargs)

        def counted_solve(self, f, *args, **kwargs):
            calls["solves"].append(f.shape)
            return solve(self, f, *args, **kwargs)
        monkeypatch.setattr(Decomposition, "_levels_raw", counted_pass)
        monkeypatch.setattr(EllipticOperator, "solve_green_raw", counted_solve)
        assert main(["report", str(arch), "--out", str(tmp_path / "rep")]) == 0
        assert calls == {"passes": 1, "solves": [(27, 1, 1)]}

    def test_green_decay_from_the_stored_levels(self, tmp_path):
        cfg = write_config(tmp_path, perturbed_config(d=3, N=2, sources=(13,)))
        arch = tmp_path / "arch"
        assert main(["decompose", "--config", cfg, "--out", str(arch)]) == 0
        out = tmp_path / "rep"
        assert main(["report", str(arch), "--out", str(out)]) == 0
        recs = [json.loads(l) for l in (out / "report.jsonl").read_text().splitlines()]
        green = [r for r in recs if r["check"] == "green_decay"]
        dec = load_archive(arch)
        solved = dec.op.green_column(13, dec.plan.solver_tol)
        assert [r["params"]["j"] for r in green] == [0, 1, 2]
        for rec in green:
            expected = regularity.green_decay_check(solved, rec["params"]["j"])
            assert rec["params"]["source"] == 13
            assert rec["lhs"] == pytest.approx(expected.lhs, rel=1e-8)


class TestSample:
    def test_zero_count(self, sample_archive, tmp_path):
        out = tmp_path / "s0"
        assert main(["sample", str(sample_archive), "--count", "0",
                     "--out", str(out)]) == 0
        assert not out.exists()

    def test_fixed_seed_bit_identical(self, sample_archive, tmp_path):
        a, b = tmp_path / "sa", tmp_path / "sb"
        for out in (a, b):
            assert main(["sample", str(sample_archive), "--count", "32",
                         "--seed", "11", "--out", str(out)]) == 0
        assert (a / "samples.bin").read_bytes() == (b / "samples.bin").read_bytes()

    def test_negative_level_is_refused(self, sample_archive, tmp_path,
                                       monkeypatch, capsys):
        def indefinite(dec):
            return [np.diag(np.linspace(-1e-6, 1.0, 25))]
        monkeypatch.setattr(cli, "dense_level_matrices", indefinite)
        out = tmp_path / "neg"
        assert main(["sample", str(sample_archive), "--count", "4",
                     "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "check"
        assert not out.exists()

    def test_solver_failure_exits_1(self, sample_archive, tmp_path,
                                    monkeypatch, capsys):
        def diverging(dec):
            raise ConvergenceError("no convergence", SolveReport(1, 1.0, 1e-10))
        monkeypatch.setattr(cli, "dense_level_matrices", diverging)
        assert main(["sample", str(sample_archive), "--count", "4",
                     "--out", str(tmp_path / "div")]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "solver"

    def test_sample_shape_and_log(self, sample_archive, tmp_path):
        from frdkit.tableio import read_table
        out = tmp_path / "sc"
        assert main(["sample", str(sample_archive), "--count", "8",
                     "--seed", "1", "--out", str(out)]) == 0
        arr, header = read_table(out / "samples")
        assert arr.shape == (8, 25, 1)
        log = json.loads((out / "sampling_log.json").read_text())
        assert len(log["clips"]) == 2


class TestProbe:
    def test_probe_runs(self, tmp_path):
        cfg = perturbed_config(d=3, N=2)
        cfg["coefficients"]["epsilon"] = 0.0
        cfg["coefficients"]["modes"] = []
        cfg["probe"] = {
            "direction_matrix": (0.3 * np.eye(3)).tolist(),
            "steps": [1e-3, 5e-4],
            "level": 1,
            "source": 0,
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "probe"
        assert main(["probe", "--config", path, "--out", str(out)]) == 0
        recs = [json.loads(l) for l in
                (out / "probe.jsonl").read_text().splitlines()]
        green = next(r for r in recs if r["check"] == "green_derivative")
        assert green["oracle_rel_error"] <= 1e-4
        assert 3.0 <= green["richardson_ratio"] <= 5.0

    def test_oracle_at_perturbed_base(self, tmp_path):
        path = write_config(tmp_path, probe_config())
        out = tmp_path / "probe"
        assert main(["probe", "--config", path, "--out", str(out)]) == 0
        recs = [json.loads(l) for l in
                (out / "probe.jsonl").read_text().splitlines()]
        green = next(r for r in recs if r["check"] == "green_derivative")
        assert green["oracle_rel_error"] <= 1e-4
        assert 3.0 <= green["richardson_ratio"] <= 5.0

    def test_every_solve_at_probe_tolerance(self, tmp_path, monkeypatch):
        tols = spy_solves(monkeypatch)
        path = write_config(tmp_path, probe_config(scan_steps=[1e-2, 5e-3]))
        assert main(["probe", "--config", path,
                     "--out", str(tmp_path / "p")]) == 0
        assert tols and max(tols) <= PROBE_TOL

    @pytest.mark.parametrize("probe", [{"source": 999}, {"source": -1},
                                       {"source": 1.5}, {"level": 7},
                                       {"level": True}])
    def test_bad_probe_site_or_level_exits_2(self, tmp_path, capsys,
                                             monkeypatch, probe):
        tols = spy_solves(monkeypatch)
        path = write_config(tmp_path, probe_config(**probe))
        out = tmp_path / "p"
        assert main(["probe", "--config", path, "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not tols and not out.exists()

    def test_zero_direction_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, probe_config(direction_matrix=[[0.0, 0.0],
                                                                      [0.0, 0.0]]))
        assert main(["probe", "--config", path, "--out", str(tmp_path / "p")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    def test_probe_requires_section(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG)
        assert main(["probe", "--config", path,
                     "--out", str(tmp_path / "p")]) == 2
