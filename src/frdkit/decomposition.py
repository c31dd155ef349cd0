"""Multiscale splitting of the Green operator into finite-range levels.

Let W_j be the averaged local solves of cube side l_j, F_j = I - W_j A the
fluctuation and F_j^T its transpose.  With h_0 = u and h_j = F_j^T h_{j-1},

    level k = F_1...F_{k-1} W_k (h_{k-1} + h_k)        (k <= n, ranged),
    last level = G (F_1^T...F_n^T h_n, mean removed),

which on mean-zero u sum to the Green solve G u.  A ranged level involves
local solves only, so its kernel slice is supported within sup-distance
2(l_1 + ... + l_k) - 1 of the source and is exactly zero beyond; the last
level takes the one Green solve.  A whole-torus cube has no local solves:
its W is the Green solve, which joins the same block solve.

Fields and kernel slices go through the same evaluator, many at once along
a trailing batch axis.  Field outputs are mean-projected; kernel slices are
not, so their sum over the levels is the Green kernel slice plus a constant
per column (``kernel_sum`` removes it).  No check reads such a constant, so
archives whose slices all came from a Green solve still load and verify.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lattice import (
    LatticeError,
    LatticeField,
    LatticeTorus,
    column_blocks,
    distances_from,
    mean_zero_tolerance,
)
from .coefficients import export_table, import_table
from .operators import (DEFAULT_TOL, EllipticOperator, KernelColumn, MeanZeroError,
                        SolveReport)
from .smoothing import AveragingOperator
from . import tableio

ARCHIVE_FORMAT = "frdkit-archive-v1"
#: Cap on the bytes of one column block pushed through the level chains
#: (kernel sources, probes, basis vectors); a block holds at least one column.
BLOCK_BYTES = 16 << 20


def default_cube_sides(L: int, N: int) -> tuple[int, ...]:
    """Cube side ``L**(k-1)`` for level k, capped at the torus side.

    A fluctuation with cube side l widens a kernel's support by l (l - 1 from
    the local solve, 1 from the stencil), and level k applies two of each
    side l_1, ..., l_k, so its kernel is zero from sup-distance
    R_k = 2(l_1 + ... + l_k) on.  With these sides R_k = 2(L**k - 1)/(L - 1),
    which lies within the claimed range radius ``L**k / 2`` only for L >= 5:
    for L = 3, level 2 is zero from 8, not from 4.5.
    """
    side = L ** N
    return tuple(min(L ** (k - 1), side) for k in range(1, N + 1))


@dataclass(frozen=True)
class DecompositionPlan:
    """Cube sides per level, claimed range radii, and solver tolerances."""

    cube_sides: tuple[int, ...]
    range_radii: tuple[float, ...]
    solver_tol: float = DEFAULT_TOL

    def __post_init__(self):
        if len(self.cube_sides) != len(self.range_radii):
            raise LatticeError("cube side and range radius counts differ")
        if any(b <= a for a, b in zip(self.cube_sides, self.cube_sides[1:])):
            raise LatticeError(f"cube sides must strictly increase: {self.cube_sides}")
        if not 0 < self.solver_tol < np.inf:
            raise LatticeError(f"solver_tol must be finite and positive: {self.solver_tol}")
        if not all(r >= 0 for r in self.range_radii):
            raise LatticeError(f"range radii must not be negative: {self.range_radii}")

    @property
    def depth(self) -> int:
        return len(self.cube_sides)

    @property
    def levels(self) -> int:
        return self.depth + 1

    @staticmethod
    def default(torus: LatticeTorus) -> "DecompositionPlan":
        sides = default_cube_sides(torus.L, torus.N)
        radii = tuple(0.5 * torus.L ** k for k in range(1, torus.N + 1))
        return DecompositionPlan(sides, radii)

    def validate_for(self, torus: LatticeTorus) -> None:
        if self.cube_sides and self.cube_sides[-1] > torus.side:
            raise LatticeError(
                f"largest cube side {self.cube_sides[-1]} exceeds torus side {torus.side}"
            )

    def to_json(self) -> dict:
        return {
            "cube_sides": list(self.cube_sides),
            "range_radii": list(self.range_radii),
            "solver_tol": self.solver_tol,
        }

    @staticmethod
    def from_json(obj: dict) -> "DecompositionPlan":
        radii = tuple(float(v) for v in obj["range_radii"])
        return DecompositionPlan(tuple(obj["cube_sides"]), radii, float(obj["solver_tol"]))


#: The plan in a config (keys left out take their defaults) and in a manifest.
PLAN_SCHEMA = {"cube_sides?": [int], "range_radii?": [float], "solver_tol?": float}


class Decomposition:
    """Composable level operators plus extracted kernel slices."""

    def __init__(self, op: EllipticOperator, plan: DecompositionPlan):
        plan.validate_for(op.torus)
        self.op = op
        self.plan = plan
        self.smoothers = [AveragingOperator(op, l) for l in plan.cube_sides]
        self.kernels: dict[tuple[int, int], KernelColumn] = {}
        self.manifest: dict = {}

    # -- operator applications ----------------------------------------------

    def _check_level(self, k: int) -> None:
        if not 1 <= k <= self.plan.levels:
            raise LatticeError(f"level {k} out of range 1..{self.plan.levels}")

    def _levels_raw(self, u: np.ndarray, levels) -> tuple[list, SolveReport]:
        """The given levels of u, unprojected (see the module docstring).

        The halves h_j are shared.  The last level and a whole-torus W go
        first, through one block Green solve whose report is returned too;
        the local solves W_k of the ranged levels and their F follow."""
        n = self.plan.depth
        h = [u]
        for s in self.smoothers[:max(min(k, n) for k in levels)]:
            h.append(s.fluctuation_transpose_raw(h[-1]))
        out, rhs = {}, {}
        for k in levels:
            if k > n:
                rhs[k] = h[n]
                for s in reversed(self.smoothers):
                    rhs[k] = s.fluctuation_transpose_raw(rhs[k])
            elif self.smoothers[k - 1].whole_torus:
                rhs[k] = h[k - 1] + h[k]
        report = SolveReport(0, 0.0, self.plan.solver_tol)
        if rhs:
            block = np.stack(list(rhs.values()), axis=-1).reshape(u.shape[:2] + (-1,))
            # twice: one pass leaves a column constant to roundoff (a whole-torus
            # plan's last level of a field) with a sum the solver refuses
            for _ in range(2):
                block -= block.mean(axis=0)
            sol, report = self.op.solve_green_raw(block, self.plan.solver_tol)
            sol = sol.reshape(u.shape + (len(rhs),))
            out.update((k, sol[..., i]) for i, k in enumerate(rhs))
        for k in levels:
            if k not in out:
                out[k] = self.smoothers[k - 1].solve_all_translates(h[k - 1] + h[k])
            for s in reversed(self.smoothers[:k - 1] if k <= n else []):
                out[k] = s.fluctuation_raw(out[k])
        return [out[k] for k in levels], report

    def _fields_raw(self, flat: np.ndarray, levels) -> tuple[list, SolveReport]:
        """Levels of mean-zero fields, mean-projected; other fields raise."""
        block = flat if flat.ndim == 3 else flat[..., None]
        if (np.abs(block.sum(axis=0)).max(axis=0) > mean_zero_tolerance(block)).any():
            raise MeanZeroError(f"fields have component sums {block.sum(axis=0)}")
        out, report = self._levels_raw(flat, levels)
        return [v - v.mean(axis=0) for v in out], report

    def apply_level_raw(self, k: int, flat: np.ndarray) -> np.ndarray:
        """One level of a mean-zero field, or of each column of (sites, m, B)."""
        self._check_level(k)
        return self._fields_raw(flat, (k,))[0][0]

    def apply_level(self, k: int, phi: LatticeField) -> LatticeField:
        """One level of the splitting applied to a mean-zero field."""
        if phi.torus != self.op.torus:
            raise LatticeError("field torus does not match operator torus")
        return LatticeField(self.op.torus, self.apply_level_raw(k, phi.values))

    def apply_all_levels_raw(self, flat: np.ndarray, with_report: bool = False):
        """All levels of mean-zero fields, mean-projected; they sum to the solve.

        A (sites, m, B) input is B independent fields, pushed through the
        levels as one block with one Green solve, the last level's.  With
        ``with_report`` the result is ``(levels, SolveReport)``.
        """
        out, report = self._fields_raw(flat, range(1, self.plan.levels + 1))
        return (out, report) if with_report else out

    # -- kernel slices ---------------------------------------------------------

    def kernel_columns(self, sources, levels=None, with_report: bool = False):
        """Kernel slices of the given levels (default all) at every source.

        The unit sources of all sources and components go through the levels
        as one block, so the last level takes one block Green solve.  The
        slices are stored in ``kernels`` and returned level-major; with
        ``with_report`` the result is ``(slices, SolveReport)``.
        """
        t = self.op.torus
        levels = tuple(range(1, self.plan.levels + 1)) if levels is None else tuple(levels)
        for k in levels:
            self._check_level(k)
        srcs = [t.site(x) for x in sources]
        delta = np.zeros((t.sites, t.m, len(srcs), t.m))
        delta[srcs, :, np.arange(len(srcs)), :] = np.eye(t.m)
        vs, report = self._levels_raw(delta.reshape(t.sites, t.m, -1), levels)
        sol = np.stack(vs, axis=2).reshape(t.sites, t.m, len(levels), len(srcs), t.m)
        tag = self.op.coefficients.content_hash()[:12]
        out = []
        for ki, k in enumerate(levels):
            for i, s in enumerate(srcs):
                col = KernelColumn(t, s, np.ascontiguousarray(sol[:, :, ki, i]),
                                   f"level:{k}:{tag}", self.plan.solver_tol)
                self.kernels[(k, s)] = col
                out.append(col)
        return (out, report) if with_report else out

    def level_kernel_column(self, k: int, x0) -> KernelColumn:
        """Kernel slice of level k at one source site (see ``kernel_columns``)."""
        return self.kernel_columns([x0], (k,))[0]

    @property
    def sources(self) -> list[int]:
        """The stored sources in order, or ``[0]`` when none are stored."""
        return sorted({s for (_, s) in self.kernels}) or [0]

    def kernel(self, k: int, s) -> KernelColumn:
        """The stored kernel slice of level k at source s; a source without
        one has the slices of every level extracted and stored at once."""
        key = (k, self.op.torus.site(s))
        if key not in self.kernels:
            self.kernel_columns([s])
        return self.kernels[key]

    def kernel_sum(self, s) -> np.ndarray:
        """The mean-zero Green kernel slice at s: the level slices there, summed,
        with each column's mean removed."""
        total = sum(self.kernel(k, s).values for k in range(1, self.plan.levels + 1))
        return total - total.mean(axis=0)

    def far_mask(self, k: int, source: int) -> np.ndarray:
        """Sites at or beyond the claimed range radius of level k (may be empty).

        The last level carries no range claim; its mask uses the depth-level
        radius so its far-field variation can still be reported.
        """
        t = self.op.torus
        radius = self.plan.range_radii[min(k, self.plan.depth) - 1]
        return distances_from(t, t.coords_of(source)) >= radius

    def far_field_stats(self, k: int, source: int) -> dict:
        """Far-region mean block (the reported constant), spread, and extremes;
        all zero when the far region is empty."""
        vals = self.kernel(k, source).values
        mask = self.far_mask(k, source)
        far = vals[mask] if mask.any() else np.zeros((1,) + vals.shape[1:])
        return {
            "level": k,
            "source": source,
            "far_sites": int(mask.sum()),
            "max_abs": float(np.abs(vals).max()),
            "constant_block": far.mean(axis=0).tolist(),
            "far_std": float(far.std(axis=0).max()),
            "far_spread": float((far.max(axis=0) - far.min(axis=0)).max()),
        }

def build_decomposition(
    op: EllipticOperator,
    plan: DecompositionPlan | None = None,
    sources=(),
) -> Decomposition:
    """Materialize kernel slices for the requested sources at every level.

    The manifest's ``solver`` entry holds the block iterations summed over
    the kernel solves and their worst relative residual, and ``smoothers``
    each smoother's cube side, coefficient-period class count, whether its
    local inverses fit the cache and whether it is applied through its Bloch
    symbol; all are deterministic, so archives stay byte-reproducible.
    """
    plan = DecompositionPlan.default(op.torus) if plan is None else plan
    dec = Decomposition(op, plan)
    t = op.torus
    srcs = [t.site(s) for s in sources]
    per_source = t.sites * t.m * t.m * plan.levels * 8
    iterations, residual = 0, 0.0
    for block in column_blocks(len(srcs), per_source, BLOCK_BYTES):
        _, report = dec.kernel_columns(srcs[block], with_report=True)
        iterations += report.iterations
        residual = max(residual, report.residual)
    dec.manifest = {
        "format": ARCHIVE_FORMAT,
        "torus": {"d": t.d, "m": t.m, "L": t.L, "N": t.N},
        "plan": plan.to_json(),
        "levels": plan.levels,
        "sources": [int(s) for s in srcs],
        "coefficient_hash": op.coefficients.content_hash(),
        "solver": {"iterations": iterations, "residual": residual},
        "smoothers": [{"cube_side": s.side_length, "classes": s.classes,
                       "cached": s.cached, "symbol": s.symbol}
                      for s in dec.smoothers],
        "created": _timestamp(),
    }
    return dec


def _timestamp() -> str:
    # SOURCE_DATE_EPOCH keeps archives byte-reproducible under fixed seeds.
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    stamp = int(epoch) if epoch is not None else int(time.time())
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(stamp))


# ---------------------------------------------------------------------------
# archives


def save_archive(dec: Decomposition, directory: Path | str) -> Path:
    """Write manifest, coefficient table, and one table per (level, source)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    export_table(dec.op.coefficients, directory / "coefficients")
    kernel_files = {}
    for (k, s), col in sorted(dec.kernels.items()):
        stem = directory / f"kernel_L{k}_S{s}"
        header = col.export(stem)
        kernel_files[f"{k}:{s}"] = {"stem": stem.name, "sha256": header["sha256"]}
    manifest = dict(dec.manifest)
    manifest["kernels"] = kernel_files
    tableio.atomic_write_text(directory / "manifest.json",
                              tableio.json_dumps(manifest))
    return directory


#: The manifest.  Keys it does not name are admitted: archives written while
#: the ``threads`` option (or ``decompose --seed``) existed still carry it.
MANIFEST_SCHEMA = {
    "format": ARCHIVE_FORMAT, "torus": {"d": int, "m": int, "L": int, "N": int},
    "plan": PLAN_SCHEMA, "levels": int, "sources": [int], "coefficient_hash": str,
    "kernels": {str: {"stem": str, "sha256": str}},
    "solver?": {"iterations": int, "residual": float}, "created?": str, "seed?": int,
    "smoothers?": [{"cube_side": int, "classes": int, "cached": bool, "symbol?": bool}],
    str: object,
}


def load_archive(directory: Path | str) -> Decomposition:
    """Reload an archive, verifying the manifest and every table against it.

    Each table must match its own header and the hash the manifest recorded
    for it; each kernel's torus, source and provenance must match its
    manifest key and the archived coefficients.  Any mismatch, or a manifest
    that does not fit ``MANIFEST_SCHEMA``, raises ``IntegrityError``.
    """
    directory = Path(directory)
    try:
        manifest = json.loads((directory / "manifest.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise tableio.IntegrityError(f"unreadable manifest: {exc}") from exc
    try:
        tableio.check_json(manifest, MANIFEST_SCHEMA, "manifest")
        torus = LatticeTorus(**manifest["torus"])
        plan = DecompositionPlan.from_json(manifest["plan"])
        plan.validate_for(torus)
        coeff = import_table(directory / "coefficients")
    except (KeyError, TypeError, ValueError) as exc:
        raise tableio.IntegrityError(f"malformed archive: {exc}") from exc
    if coeff.torus != torus:
        raise tableio.IntegrityError("coefficient table torus does not match manifest")
    if coeff.content_hash() != manifest["coefficient_hash"]:
        raise tableio.IntegrityError("coefficient table does not match manifest")
    if manifest["levels"] != plan.levels:
        raise tableio.IntegrityError(
            f"manifest has {manifest['levels']} levels, its plan {plan.levels}"
        )
    op = EllipticOperator(coeff)
    dec = Decomposition(op, plan)
    dec.manifest = manifest
    tag = manifest["coefficient_hash"][:12]
    for key, entry in manifest["kernels"].items():
        stem = entry["stem"]
        if stem in ("", ".", "..") or "/" in stem or "\\" in stem:
            raise tableio.IntegrityError(f"kernel stem {stem!r} is not a plain file name")
        try:
            k, s = (int(v) for v in key.split(":"))
            col = KernelColumn.import_table(directory / stem, entry["sha256"])
        except (KeyError, TypeError, ValueError) as exc:
            raise tableio.IntegrityError(f"malformed kernel entry {key!r}: {exc}") from exc
        if (not 1 <= k <= plan.levels or not 0 <= s < torus.sites
                or col.torus != torus or col.source != s
                or col.provenance != f"level:{k}:{tag}"):
            raise tableio.IntegrityError(
                f"kernel table {stem} does not match manifest entry {key!r}"
            )
        dec.kernels[(k, s)] = col
    return dec
