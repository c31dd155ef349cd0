"""Command-line front end: decompose, verify, report, sample, probe.

Configs are strict JSON: unknown keys and ill-typed values are hard errors so
a misspelled budget cannot silently fall back to a default.  All outputs are
written atomically; reports are JSON lines plus a fixed-column CSV summary.
Exit codes: 0 success, 1 failed asserted checks or solves, 2 configuration or
usage errors (a plan whose local solves exceed the memory budget among them),
3 archive integrity errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .lattice import LatticeError
from .coefficients import (
    COEFFICIENT_SCHEMA,
    CoefficientField,
    NonEllipticError,
    make_perturbed,
    spec_from_config,
)
from .operators import ConvergenceError, EllipticOperator, KernelColumn, ORACLE_SITE_LIMIT
from .decomposition import (
    PLAN_SCHEMA,
    DecompositionPlan,
    build_decomposition,
    load_archive,
    save_archive,
)
from .reporting import NormReport, write_csv_summary, write_jsonl
from .smoothing import MemoryBudgetError
from .sensitivity import (
    PROBE_TOL,
    DirectionalProbe,
    directional_derivative,
    green_derivative_estimate,
    green_derivative_oracle,
    lipschitz_scan,
)
from .verification import POSITIVITY_SLACK, dense_level_matrices, run_suites
from . import regularity, tableio

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_INTEGRITY = 3

#: The config format (kinds as ``tableio.check_json`` reads them).
CONFIG_SCHEMA = {
    "coefficients": COEFFICIENT_SCHEMA, "plan?": PLAN_SCHEMA, "sources?": ("all", [int]),
    "probe?": {"direction_matrix": tableio.MATRIX, "steps?": [float], "level?": int,
               "source?": int, "scan_steps?": [float]},
}


def _error(kind: str, message: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    return code


def load_config(path: str) -> dict:
    cfg = json.loads(Path(path).read_text())
    tableio.check_json(cfg, CONFIG_SCHEMA, "config")
    return cfg


def build_from_config(cfg: dict):
    """Operator, plan and sources; sites and the probe level are checked first."""
    torus, spec = spec_from_config(cfg["coefficients"])
    plan = DecompositionPlan.from_json({**DecompositionPlan.default(torus).to_json(),
                                        **cfg.get("plan", {})})
    plan.validate_for(torus)
    sources = cfg.get("sources", [0])
    sources = [torus.site(s) for s in (range(torus.sites) if sources == "all" else sources)]
    pcfg = cfg.get("probe", {})
    torus.site(pcfg.get("source", 0))
    if not 1 <= pcfg.get("level", 1) <= plan.levels:
        raise LatticeError(f"probe level must lie in 1..{plan.levels}")
    return EllipticOperator(make_perturbed(spec, torus)), plan, sources


def cmd_decompose(args) -> int:
    try:
        cfg = load_config(args.config)
        op, plan, sources = build_from_config(cfg)
        dec = build_decomposition(op, plan, sources)
        out = Path(args.out or "archive")
        save_archive(dec, out)
    except (OSError, ValueError) as exc:  # every config error is a ValueError
        return _error("config", str(exc), EXIT_CONFIG)
    except ConvergenceError as exc:
        return _error("solver", str(exc), EXIT_CHECK_FAILED)
    print(f"archive written to {out} ({plan.levels} levels, "
          f"{len(sources)} sources)")
    return EXIT_OK


def _write_reports(records, out_dir: Path, stem: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_jsonl(records, out_dir / f"{stem}.jsonl")
    write_csv_summary([r for r in records if isinstance(r, NormReport)],
                      out_dir / f"{stem}.csv")


def cmd_verify(args) -> int:
    dec = load_archive(args.archive)
    try:
        records = run_suites(dec, args.suite, seed=args.seed)
    except ConvergenceError as exc:
        return _error("solver", str(exc), EXIT_CHECK_FAILED)
    except (LatticeError, ValueError) as exc:
        return _error("check", str(exc), EXIT_CHECK_FAILED)
    out = Path(args.out or Path(args.archive) / "reports")
    _write_reports(records, out, f"verify_{args.suite}")
    asserted = [r for r in records if isinstance(r, NormReport) and r.asserted]
    failed = [r for r in asserted if not r.passed]
    print(f"{len(asserted)} asserted checks, {len(failed)} failed "
          f"({len(records) - len(asserted)} reported only)")
    for rec in failed:
        print(f"  FAIL {rec.check} {rec.params} lhs={rec.lhs:.3e} "
              f"rhs={rec.rhs:.3e} constant={rec.constant:g}")
    return EXIT_OK if not failed else EXIT_CHECK_FAILED


def cmd_report(args) -> int:
    """Reported-only diagnostics from the archived kernels: decay tables,
    far-field spreads, Green decay of their sum, majorants."""
    dec = load_archive(args.archive)
    t = dec.op.torus
    sources = dec.sources
    try:
        records: list = [regularity.level_decay_report(dec, sources, (0, 1, 2))]
        for k in range(1, dec.plan.levels + 1):
            for s in sources:
                stats = dec.far_field_stats(k, s)
                records.append(NormReport(
                    check="far_field_spread",
                    params={"level": k, "source": s},
                    lhs=stats["far_spread"], rhs=stats["max_abs"],
                    constant=float("inf"), asserted=False,
                    extra=stats,
                ))
        if t.d >= 3:
            green = KernelColumn(t, sources[0], dec.kernel_sum(sources[0]),
                                 "levels", dec.plan.solver_tol)
            for j in (0, 1, 2):
                records.append(regularity.green_decay_check(green, j))
            records.append(regularity.kernel_majorant_report(t, sources[0]))
    except ConvergenceError as exc:
        return _error("solver", str(exc), EXIT_CHECK_FAILED)
    out = Path(args.out or Path(args.archive) / "reports")
    _write_reports(records, out, "report")
    print(f"{len(records)} report records written to {out}")
    return EXIT_OK


def cmd_sample(args) -> int:
    dec = load_archive(args.archive)
    t = dec.op.torus
    if t.sites * t.m > ORACLE_SITE_LIMIT:
        return _error("config", f"sampling needs sites*m <= {ORACLE_SITE_LIMIT}",
                      EXIT_CONFIG)
    if args.count == 0:
        print("no samples requested")
        return EXIT_OK
    try:
        mats = dense_level_matrices(dec)
    except ConvergenceError as exc:
        return _error("solver", str(exc), EXIT_CHECK_FAILED)
    rng = np.random.default_rng(args.seed)
    n = t.sites * t.m
    total = np.zeros((args.count, n))
    clip_log = []
    for k, mat in enumerate(mats, start=1):
        w, V = np.linalg.eigh(mat)
        # the criterion of the positivity suite's dense-eigenvalue record
        if w[0] < -POSITIVITY_SLACK:
            return _error("check", f"archive failed positivity verification: level "
                          f"{k} has eigenvalue {w[0]:.3e}", EXIT_CHECK_FAILED)
        clipped = np.clip(w, 0.0, None)
        clip_log.append({"level": k, "max_clip": float((clipped - w).max())})
        factor = V * np.sqrt(clipped)
        xi = rng.standard_normal((n, args.count))
        total += (factor @ xi).T
    out = Path(args.out or Path(args.archive) / "samples")
    out.mkdir(parents=True, exist_ok=True)
    tableio.write_table(out / "samples", total.reshape(args.count, t.sites, t.m),
                        meta={"kind": "samples", "seed": args.seed, "count": args.count})
    tableio.atomic_write_text(out / "sampling_log.json",
                              tableio.json_dumps({"clips": clip_log}))
    print(f"{args.count} samples written to {out}")
    return EXIT_OK


def cmd_probe(args) -> int:
    try:
        cfg = load_config(args.config)
        if "probe" not in cfg:
            raise LatticeError("config requires a 'probe' section")
        pcfg = cfg["probe"]
        op, plan, _ = build_from_config(cfg)
        S = np.asarray(pcfg["direction_matrix"], dtype=np.float64)
        if not S.any():
            raise LatticeError("direction_matrix is zero: the oracle ratios are undefined")
        probe = DirectionalProbe(
            base=op.coefficients,
            direction=CoefficientField.constant(op.torus, S),
            steps=tuple(float(h) for h in pcfg.get("steps", (1e-3, 5e-4))),
            level=pcfg.get("level", 1),
            source=pcfg.get("source", 0),
            plan=plan,
            tol=min(plan.solver_tol, PROBE_TOL),
        )
    except (OSError, ValueError) as exc:  # every config error is a ValueError
        return _error("config", str(exc), EXIT_CONFIG)

    records = []
    try:
        _, info = green_derivative_estimate(probe)
        oracle = green_derivative_oracle(probe)
        error = {h: np.linalg.norm(est - oracle) for h, est in info["estimates"].items()}
        finest = error[min(error)]
        records.append({"check": "green_derivative", "steps": info["steps"],
                        "margins": info["margins"], "asserted": False,
                        "oracle_rel_error": float(finest / np.linalg.norm(oracle)),
                        "richardson_ratio": float(error[max(error)] / finest)})
        _, dreport = directional_derivative(probe)
        records.append({"check": "level_derivative", **dreport,
                        "level": probe.level, "asserted": False})
        scan_steps = pcfg.get("scan_steps")
        if scan_steps:
            scan_probe = replace(probe, steps=tuple(float(h) for h in scan_steps))
            records.append({"check": "lipschitz_scan",
                            **lipschitz_scan(scan_probe), "asserted": False})
    except (NonEllipticError, ConvergenceError, LatticeError) as exc:
        return _error("probe", str(exc), EXIT_CHECK_FAILED)
    out = Path(args.out or "probe_reports")
    out.mkdir(parents=True, exist_ok=True)
    write_jsonl(records, out / "probe.jsonl")
    print(f"{len(records)} probe records written to {out}")
    return EXIT_OK


def _non_negative(text: str) -> int:
    """argparse type of ``--count`` and ``--seed``: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frdkit",
        description="Finite range decompositions of lattice Green operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="build and archive a decomposition")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="run verification suites on an archive")
    p.add_argument("archive")
    p.add_argument("--suite", default="all",
                   choices=["range", "positivity", "reconstruction", "decay",
                            "regularity", "all"])
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=_non_negative, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="write reported-only diagnostics")
    p.add_argument("archive")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("sample", help="draw Gaussian fields from the levels")
    p.add_argument("archive")
    p.add_argument("--count", type=_non_negative, required=True)
    p.add_argument("--seed", type=_non_negative, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("probe", help="finite-difference coefficient sensitivity")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_probe)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MemoryBudgetError as exc:
        return _error("memory", str(exc), EXIT_CONFIG)
    except tableio.IntegrityError as exc:
        return _error("integrity", str(exc), EXIT_INTEGRITY)


if __name__ == "__main__":
    sys.exit(main())
