"""Multiscale splitting of the Green operator into finite-range levels.

Level k is the difference of two sandwiched smoothing chains,

    level_k = chain_{k-1} - chain_k,      last level = chain_n,

where ``chain_j`` composes the fluctuation operators of cubes with increasing
sides around one Green solve.  The dual factors are never applied directly:
conjugating the complement through the solve converts every sandwich into a
palindrome of plain fluctuation applications after a single solve, which
halves the solver work.

Kernel slices at a fixed source are extracted through the transposed chain
(local solves first, one Green solve last).  On mean-zero test pairs both
orientations represent the same symmetric level operator; they differ by a
source-independent background field, and the transposed orientation is the
one whose far-field values are constant, which is the normalization the
range checks measure.

Every application takes an optional trailing batch axis, so many fields, or
the unit sources of many kernel slices, share one block solve and one pass
through the chains.
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
)
from .coefficients import export_table, import_table
from .operators import DEFAULT_TOL, EllipticOperator, KernelColumn
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
    side l_1, ..., l_k, so its kernel is constant from sup-distance
    R_k = 2(l_1 + ... + l_k) on.  With these sides R_k = 2(L**k - 1)/(L - 1),
    which lies within the claimed range radius ``L**k / 2`` only for L >= 5:
    for L = 3, level 2 is flat from 8, not from 4.5.
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

    def _chains_raw(self, u: np.ndarray, wanted, transpose: bool = False) -> dict:
        """Palindromic fluctuation sandwiches ``T_1…T_j T_j…T_1 u`` for j in wanted.

        The forward halves ``F_j = T_j…T_1 u`` are computed once and shared,
        so chains 0..n cost n(n+3)/2 fluctuation applications instead of
        n(n+1).  ``transpose`` uses the transposed fluctuations throughout.
        """
        name = "fluctuation_transpose_raw" if transpose else "fluctuation_raw"
        forward = [u]
        for s in self.smoothers[:max(wanted)]:
            forward.append(getattr(s, name)(forward[-1]))
        chains = {}
        for j in sorted(wanted):
            v = forward[j]
            for s in reversed(self.smoothers[:j]):
                v = getattr(s, name)(v)
            chains[j] = v
        return chains

    def _chain_raw(self, j: int, solved: np.ndarray) -> np.ndarray:
        """Palindromic fluctuation sandwich applied to an already-solved field."""
        return self._chains_raw(solved, {j})[j]

    def _levels_raw(self, u: np.ndarray, levels, transpose: bool = False) -> list:
        """Chain differences ``chain_{k-1} - chain_k`` (last level: ``chain_n``)."""
        n = self.plan.depth
        wanted = {j for k in levels for j in ((k - 1, k) if k <= n else (n,))}
        chains = self._chains_raw(u, wanted, transpose)
        return [chains[k - 1] - chains[k] if k <= n else chains[n] for k in levels]

    def apply_level_raw(self, k: int, flat: np.ndarray) -> np.ndarray:
        self._check_level(k)
        solved, _ = self.op.solve_green_raw(flat, self.plan.solver_tol)
        return self._levels_raw(solved, (k,))[0]

    def apply_level(self, k: int, phi: LatticeField) -> LatticeField:
        """One level of the splitting applied to a mean-zero field."""
        if phi.torus != self.op.torus:
            raise LatticeError("field torus does not match operator torus")
        return LatticeField(self.op.torus, self.apply_level_raw(k, phi.values))

    def apply_all_levels_raw(self, flat: np.ndarray, with_report: bool = False):
        """All levels from a single Green solve; sums exactly to the solve.

        A (sites, m, B) input is B independent fields: one block solve, and
        each chain applied once to the whole block.  With ``with_report`` the
        result is ``(levels, SolveReport)``.
        """
        solved, report = self.op.solve_green_raw(flat, self.plan.solver_tol)
        levels = self._levels_raw(solved, range(1, self.plan.levels + 1))
        return (levels, report) if with_report else levels

    # -- kernel slices ---------------------------------------------------------

    def kernel_columns(self, sources, levels=None, with_report: bool = False):
        """Kernel slices of the given levels (default all) at every source.

        The unit sources of all sources and components form one column
        block: the transposed chains run once over it, and the level
        differences ``v_{k-1} - v_k`` of every (level, source, component) go
        through one block Green solve.  Solving the differences, not the
        chains, keeps solver error off the small deep levels.  The slices are
        stored in ``kernels`` and returned level-major; with ``with_report``
        the result is ``(slices, SolveReport)``.
        """
        t = self.op.torus
        levels = tuple(range(1, self.plan.levels + 1)) if levels is None else tuple(levels)
        for k in levels:
            self._check_level(k)
        srcs = [t.site(x) for x in sources]
        delta = np.zeros((t.sites, t.m, len(srcs), t.m))
        for i, s in enumerate(srcs):
            delta[s, :, i, :] = np.eye(t.m)
        vs = self._levels_raw(delta.reshape(t.sites, t.m, -1), levels, transpose=True)
        rhs = np.stack(vs, axis=2).reshape(t.sites, t.m, -1)
        sol, report = self.op.solve_green_raw(rhs - rhs.mean(axis=0), self.plan.solver_tol)
        sol = sol.reshape(t.sites, t.m, len(levels), len(srcs), t.m)
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
        """The stored kernel slice of level k at source s, else extracted and stored."""
        col = self.kernels.get((k, self.op.torus.site(s)))
        return col if col is not None else self.level_kernel_column(k, s)

    def kernel_sum(self, s) -> np.ndarray:
        """The Green kernel slice at s, as the sum of the level slices there."""
        return sum(self.kernel(k, s).values for k in range(1, self.plan.levels + 1))

    def far_mask(self, k: int, source: int) -> np.ndarray:
        """Sites at or beyond the claimed range radius of level k (may be empty).

        The last level carries no range claim; its mask uses the depth-level
        radius so its far-field variation can still be reported.
        """
        t = self.op.torus
        radius = self.plan.range_radii[min(k, self.plan.depth) - 1]
        return distances_from(t, t.coords_of(source)) >= radius

    def far_field_stats(self, k: int, source: int) -> dict:
        """Far-region mean block (the reported constant), spread, and extremes."""
        col = self.kernel(k, source)
        mask = self.far_mask(k, source)
        vals = col.values
        stats = {
            "level": k,
            "source": source,
            "far_sites": int(mask.sum()),
            "max_abs": float(np.abs(vals).max()),
        }
        if mask.any():
            far = vals[mask]
            stats["constant_block"] = far.mean(axis=0).tolist()
            stats["far_std"] = float(far.std(axis=0).max())
            stats["far_spread"] = float((far.max(axis=0) - far.min(axis=0)).max())
        else:
            stats["constant_block"] = np.zeros((vals.shape[1], vals.shape[2])).tolist()
            stats["far_std"] = 0.0
            stats["far_spread"] = 0.0
        return stats


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
