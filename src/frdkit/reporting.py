"""Check records and report emission (JSON lines + CSV summary).

Every numerical check produces one record: the two sides of the inequality,
the constant it was compared against, and whether the comparison is asserted
or reported only.  CI consumes asserted records; reported-only records carry
fitted constants and degenerate cases.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from . import tableio

CSV_COLUMNS = ("check", "params", "lhs", "rhs", "ratio", "pass")


@dataclass(frozen=True)
class NormReport:
    """Outcome of one inequality check: pass iff lhs <= constant * rhs."""

    check: str
    params: dict
    lhs: float
    rhs: float
    constant: float = 1.0
    asserted: bool = True
    extra: dict = dc_field(default_factory=dict)

    @property
    def ratio(self) -> float:
        """lhs / rhs; infinity when the right side vanishes but the left does not."""
        if self.rhs == 0.0:
            return 0.0 if self.lhs == 0.0 else math.inf
        return self.lhs / self.rhs

    @property
    def passed(self) -> bool:
        return self.lhs <= self.constant * self.rhs or (
            self.lhs == 0.0 and self.rhs == 0.0
        )

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "constant": self.constant,
            "ratio": None if math.isinf(self.ratio) else self.ratio,
            "pass": self.passed,
            "asserted": self.asserted,
            "extra": self.extra,
        }


@dataclass(frozen=True)
class DecayReport:
    """Per-level kernel deviation maxima with fitted log-scale slopes.

    ``maxima[alpha_order]`` lists the sup of the differenced kernel deviation
    per level; slopes are least-squares fits of log_L(max) against level-1.
    The fitted prefactor per order is reported, never asserted.
    """

    base_scale: int
    levels: tuple[int, ...]
    maxima: dict
    slopes: dict
    prefactors: dict
    asserted: bool
    extra: dict = dc_field(default_factory=dict)

    def strictly_decreasing(self, order: int) -> bool:
        vals = self.maxima[order]
        return all(b < a for a, b in zip(vals, vals[1:]))

    def to_json(self) -> dict:
        return {
            "check": "level_decay",
            "base_scale": self.base_scale,
            "levels": list(self.levels),
            "maxima": {str(k): list(v) for k, v in self.maxima.items()},
            "slopes": {str(k): v for k, v in self.slopes.items()},
            "prefactors": {str(k): v for k, v in self.prefactors.items()},
            "asserted": self.asserted,
            "extra": self.extra,
        }


def _params_str(params: dict) -> str:
    return ";".join(f"{k}={params[k]}" for k in sorted(params))


def write_jsonl(records, path: Path | str) -> None:
    lines = []
    for rec in records:
        obj = rec.to_json() if hasattr(rec, "to_json") else rec
        lines.append(json.dumps(obj, sort_keys=True))
    tableio.atomic_write_text(Path(path), "\n".join(lines) + ("\n" if lines else ""))


def write_csv_summary(records, path: Path | str) -> None:
    """Fixed-column CSV of NormReport records; other record kinds are skipped."""
    rows = [",".join(CSV_COLUMNS)]
    for rec in records:
        if not isinstance(rec, NormReport):
            continue
        ratio = rec.ratio
        rows.append(
            ",".join(
                [
                    rec.check,
                    _params_str(rec.params),
                    f"{rec.lhs:.12e}",
                    f"{rec.rhs:.12e}",
                    "inf" if math.isinf(ratio) else f"{ratio:.12e}",
                    str(rec.passed).lower(),
                ]
            )
        )
    tableio.atomic_write_text(Path(path), "\n".join(rows) + "\n")
