"""Block (trailing batch axis) applications against column-by-column ones."""

import json
import time

import numpy as np
import pytest

from frdkit import AveragingOperator, DecompositionPlan, build_decomposition
from frdkit import operators, smoothing
from frdkit.cli import main
from frdkit.decomposition import Decomposition
from frdkit.smoothing import MemoryBudgetError
from frdkit.verification import positivity_suite
from conftest import identity_operator, perturbed_operator, random_operator

RTOL = 1e-12


def agree(a, b):
    """Relative max-norm agreement to RTOL."""
    scale = max(float(np.abs(b).max()), 1e-300)
    return float(np.abs(a - b).max()) / scale <= RTOL


def close(batched, columns):
    """A block against its columns computed one at a time."""
    return agree(batched, np.stack(columns, axis=-1))


def mean_zero_block(t, count, seed):
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((t.sites, t.m, count))
    return block - block.mean(axis=0)


def naive_level(dec, k, u):
    """Level k rebuilt one operator at a time, with no shared halves and
    no mean projection: F_1...F_{k-1} W_k (I + F_k^T) F_{k-1}^T...F_1^T u
    when ranged, else the Green solve of F_1^T...F_n^T F_n^T...F_1^T u."""
    n = dec.plan.depth
    if k > n:
        v = u
        for s in dec.smoothers + dec.smoothers[::-1]:
            v = s.fluctuation_transpose_raw(v)
        return dec.op.solve_green_raw(v - v.mean(axis=0))[0]
    v = u
    for s in dec.smoothers[:k - 1]:
        v = s.fluctuation_transpose_raw(v)
    v = dec.smoothers[k - 1].solve_all_translates(
        v + dec.smoothers[k - 1].fluctuation_transpose_raw(v))
    for s in dec.smoothers[:k - 1][::-1]:
        v = s.fluctuation_raw(v)
    return v


# (d, m, coefficients): "constant" has one class, "cached" one mode along
# axis 0 (a class per coordinate on that axis), "reassembly" the same field
# with the cache budget at zero, and "generic" a random field (a class per
# translate).
GEOMETRIES = [(d, m, path) for d in (1, 2, 3) for m in (1, 2)
              for path in ("constant", "cached", "reassembly", "generic")]


@pytest.fixture(params=GEOMETRIES, ids=lambda g: f"d{g[0]}-m{g[1]}-{g[2]}")
def dec(request, monkeypatch):
    d, m, path = request.param
    N = 1 if d == 3 else 2
    if path == "constant":
        op = identity_operator(d, L=3, N=N, m=m)
    elif path == "generic":
        op = random_operator(d, L=3, N=N, m=m)
    else:
        op = perturbed_operator(d, L=3, N=N, m=m)
    if path == "reassembly":
        monkeypatch.setattr(smoothing, "_CACHE_BYTE_BUDGET", 0)
    plan = DecompositionPlan((1, 2), (1.0, 2.0))
    out = Decomposition(op, plan)
    t = op.torus
    smoother = out.smoothers[-1]
    assert smoother.classes == {"constant": 1, "generic": t.sites}.get(path, t.side)
    assert smoother.cached == (path != "reassembly")
    return out


class TestBatchedEqualsColumns:
    def test_apply(self, dec):
        block = mean_zero_block(dec.op.torus, 4, 1)
        assert close(dec.op.apply_raw(block),
                     [dec.op.apply_raw(block[..., b]) for b in range(4)])

    def test_green_solve(self, dec):
        block = mean_zero_block(dec.op.torus, 4, 2)
        x, report = dec.op.solve_green_raw(block)
        cols = [dec.op.solve_green_raw(block[..., b])[0] for b in range(4)]
        assert close(x, cols)
        assert report.residual <= dec.plan.solver_tol

    @pytest.mark.parametrize("method", ["smooth_raw", "fluctuation_raw",
                                        "smooth_transpose_raw",
                                        "fluctuation_transpose_raw"])
    def test_smoothers(self, dec, method):
        block = mean_zero_block(dec.op.torus, 3, 3)
        for s in dec.smoothers:
            f = getattr(s, method)
            assert close(f(block), [f(block[..., b]) for b in range(3)])

    def test_all_levels(self, dec):
        block = mean_zero_block(dec.op.torus, 3, 4)
        levels = dec.apply_all_levels_raw(block)
        cols = [dec.apply_all_levels_raw(block[..., b]) for b in range(3)]
        for k, level in enumerate(levels, start=1):
            assert close(level, [c[k - 1] for c in cols])
            naive = [naive_level(dec, k, block[..., b]) for b in range(3)]
            assert close(level, [v - v.mean(axis=0) for v in naive])

    def test_kernel_extraction(self, dec):
        t = dec.op.torus
        sources = [0, t.sites // 2]
        batched = dec.kernel_columns(sources)
        pairs = [(k, s) for k in range(1, dec.plan.levels + 1) for s in sources]
        assert len(batched) == len(pairs)
        for (k, s), col in zip(pairs, batched):
            single = dec.level_kernel_column(k, s)
            assert col.source == s and col.provenance == single.provenance
            assert agree(col.values, single.values)
            for a in range(t.m):
                delta = np.zeros((t.sites, t.m))
                delta[s, a] = 1.0
                assert agree(col.values[:, :, a], naive_level(dec, k, delta))


@pytest.mark.parametrize("one_by_one", [False, True])
def test_columns_converging_apart_and_zero_column(monkeypatch, one_by_one):
    if one_by_one:
        monkeypatch.setattr(operators, "_SOLVE_BLOCK_BYTES", 1)
    op = perturbed_operator(2)
    t = op.torus
    rng = np.random.default_rng(5)
    rough = rng.standard_normal((t.sites, 1))
    point = np.zeros((t.sites, 1))
    point[0] = 1.0
    block = np.stack([rough - rough.mean(), np.zeros((t.sites, 1)),
                      point - point.mean()], axis=-1)
    reports = [op.solve_green_raw(block[..., b])[1] for b in range(3)]
    counts = [r.iterations for r in reports]
    assert counts[1] == 0 and counts[0] != counts[2]
    x, report = op.solve_green_raw(block)
    assert close(x, [op.solve_green_raw(block[..., b])[0] for b in range(3)])
    assert np.all(x[..., 1] == 0.0)
    assert report.iterations == (sum(counts) if one_by_one else max(counts))
    assert 0.0 < report.residual <= report.tol


class CountingSmoothers:
    """Counts fluctuation applications, applications of W (the averaged
    local solves, one inside every fluctuation) and the columns of each
    Green solve on one decomposition."""

    def __init__(self, monkeypatch, dec):
        self.reset()
        for name, counter in (("fluctuation_raw", "fluct"),
                              ("fluctuation_transpose_raw", "fluct"),
                              ("solve_all_translates", "local")):
            original = getattr(AveragingOperator, name)

            def counted(s, flat, _orig=original, _counter=counter):
                setattr(self, _counter, getattr(self, _counter) + 1)
                return _orig(s, flat)
            monkeypatch.setattr(AveragingOperator, name, counted)
        solve = type(dec.op).solve_green_raw

        def counted_solve(op, f, *args, **kwargs):
            self.solves.append(f.shape[2] if f.ndim == 3 else 1)
            return solve(op, f, *args, **kwargs)
        monkeypatch.setattr(type(dec.op), "solve_green_raw", counted_solve)

    def reset(self):
        self.fluct, self.local, self.solves = 0, 0, []

    def counts(self):
        return self.fluct, self.local, self.solves


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("sides,expected", [((1, 3), 5), ((1, 2, 3), 9)])
def test_single_pass_counts(monkeypatch, sides, expected, m):
    op = perturbed_operator(2, m=m)
    n = len(sides)
    dec = Decomposition(op, DecompositionPlan(sides, tuple(float(s) for s in sides)))
    counter = CountingSmoothers(monkeypatch, dec)
    block = mean_zero_block(op.torus, 6, 7)
    # W once in every fluctuation and once more per ranged level; one solve
    dec.apply_all_levels_raw(block)
    assert counter.counts() == (expected, expected + n, [6])
    counter.reset()
    dec.kernel_columns([0, 5, 17])
    assert counter.counts() == (expected, expected + n, [3 * m])
    assert len(dec.kernels) == 3 * (n + 1)
    # a ranged level takes k - 1 fluctuations each way and no solve
    for k in range(1, n + 1):
        counter.reset()
        dec.apply_level_raw(k, block)
        assert counter.counts() == (2 * k - 1, 2 * k, [])
    counter.reset()
    dec.apply_level_raw(n + 1, block)
    assert counter.counts() == (2 * n, 2 * n, [6])


def test_suites_report_solver_counters(dec_d2_pert):
    for rec in positivity_suite(dec_d2_pert, n_probes=12):
        assert rec.extra["solve_iterations"] > 0
        assert 0.0 < rec.extra["solve_residual"] <= dec_d2_pert.plan.solver_tol
    first, second = (positivity_suite(dec_d2_pert, n_probes=12) for _ in range(2))
    assert [r.extra for r in first] == [r.extra for r in second]


class TestMemoryGuard:
    def test_side27_default_plan_exits_2(self, tmp_path, capsys):
        # modes along every axis: each translate is its own class
        eye = np.eye(3).tolist()
        modes = [{"frequency": f, "amplitude": eye}
                 for f in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]
        cfg = {"coefficients": {"d": 3, "m": 1, "L": 3, "N": 3, "A0": eye,
                                "epsilon": 0.05, "modes": modes, "budget": 20.0},
               "sources": [0]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        start = time.perf_counter()
        code = main(["decompose", "--config", str(path),
                     "--out", str(tmp_path / "arch")])
        assert time.perf_counter() - start < 10.0
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "memory"
        assert "8.11 GiB" in err["message"]
        assert not (tmp_path / "arch").exists()

    def test_side5_reassembly_chunk_is_allowed(self):
        # a field varying along every axis has 3375 classes, above the cache
        # budget; 2048 local 125x125 matrices are 256 MB, inside the chunk
        # budget, and nothing is allocated until the smoother is applied
        op = random_operator(3, L=15, N=1)
        smoother = AveragingOperator(op, 5)
        assert smoother.classes == op.torus.sites
        assert not smoother.cached

    @pytest.mark.parametrize("command", ["verify", "report", "sample", "probe"])
    def test_every_command_maps_to_exit_2(self, tmp_path, capsys, monkeypatch,
                                          command):
        eye = np.eye(2).tolist()
        cfg = {"coefficients": {"d": 2, "m": 1, "L": 3, "N": 2, "A0": eye,
                                "epsilon": 0.05,
                                "modes": [{"frequency": [1, 0], "amplitude": eye}],
                                "budget": 20.0},
               "sources": [0],
               "probe": {"direction_matrix": (0.3 * np.eye(2)).tolist()}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        arch = tmp_path / "arch"
        assert main(["decompose", "--config", str(path), "--out", str(arch)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(smoothing, "_CACHE_BYTE_BUDGET", 0)
        monkeypatch.setattr(smoothing, "_CHUNK_BYTE_BUDGET", 1)
        argv = {"verify": ["verify", str(arch), "--suite", "range"],
                "report": ["report", str(arch)],
                "sample": ["sample", str(arch), "--count", "4"],
                "probe": ["probe", "--config", str(path)]}[command]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "memory" and "GiB" in err["message"]

    def test_guard_raises_before_any_solve(self, monkeypatch):
        monkeypatch.setattr(smoothing, "_CACHE_BYTE_BUDGET", 0)
        monkeypatch.setattr(smoothing, "_CHUNK_BYTE_BUDGET", 1)
        with pytest.raises(MemoryBudgetError):
            build_decomposition(perturbed_operator(2), sources=[0])
