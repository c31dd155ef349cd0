"""The measured process: sets frdkit up, then runs sessions on request.

``run.py`` starts this as a fresh interpreter with ``src`` on the path and
the BLAS thread count fixed.  It answers on stdout, one JSON object a line:
first ``{"ready": ...}`` once set-up is done, then one object per session it
is sent on stdin, and the peak resident memory when told to stop.  With
``--setup-only`` it exits after set-up, which is how ``run.py`` times set-up
in a fresh interpreter.

Tracing wraps frdkit's public entry points from outside, for one session at
a time, and restores them afterwards; nothing under ``src`` changes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import resource
import sys
import time
import traceback
import weakref
from collections import defaultdict

import frdkit
from frdkit import calibration, cli, decomposition, operators, smoothing
from frdkit import tableio, verification

MIB = float(1 << 20)


class Tracer:
    """Per-layer counters and inclusive times, recorded by wrapping entry points.

    A span nested inside a span of the same name (``project_raw`` calling
    ``dirichlet_solve_raw``) is counted once, by the outer one.
    """

    def __init__(self):
        self.values: dict[str, float] = defaultdict(float)
        self._active: set[str] = set()
        self._seen = weakref.WeakSet()
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, extra=None):
        values, active = self.values, self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in active:
                return fn(*args, **kwargs)
            active.add(name)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                values[name + ".s"] += time.perf_counter() - start
                active.discard(name)
            values[name + ".calls"] += 1
            if extra is not None:
                for key, amount in extra(args, out).items():
                    values[key] += amount
            return out
        return wrapper

    def _smoother(self, fn):
        """First application of each smoother is cold (it builds the cache)."""
        values, seen = self.values, self._seen

        @functools.wraps(fn)
        def wrapper(smoother, flat):
            cold = smoother not in seen
            seen.add(smoother)
            start = time.perf_counter()
            out = fn(smoother, flat)
            elapsed = time.perf_counter() - start
            values["smoothing.calls"] += 1
            if cold:
                values["smoothing.cold.s"] += elapsed
            else:
                values["smoothing.warm.s"] += elapsed
                values[f"smoothing.side{smoother.side_length}.warm.s"] += elapsed
            return out
        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_function(self, module, attr: str, make) -> None:
        """Wrap a module function in every frdkit module that imported it."""
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("frdkit") and \
                    getattr(mod, attr, None) is original:
                self._patch(mod, attr, wrapper)

    def install(self) -> None:
        span = self._span
        Op = operators.EllipticOperator
        self._patch(Op, "solve_green_raw", span(
            "operators.solve", Op.solve_green_raw,
            lambda args, out: {"operators.solve.iters": out[1].iterations}))
        self._patch(Op, "apply_raw", span("operators.apply", Op.apply_raw))

        Avg = smoothing.AveragingOperator
        for attr in ("fluctuation_raw", "fluctuation_transpose_raw"):
            self._patch(Avg, attr, self._smoother(getattr(Avg, attr)))
        Proj = smoothing.CubeProjector
        for attr in ("__init__", "dirichlet_solve_raw", "project_raw"):
            self._patch(Proj, attr, span("smoothing.projector", getattr(Proj, attr)))

        Dec = decomposition.Decomposition
        self._patch(Dec, "level_kernel_column",
                    span("decomposition.kernel", Dec.level_kernel_column))
        self._patch(Dec, "apply_all_levels_raw",
                    span("decomposition.levels", Dec.apply_all_levels_raw))
        self._patch_function(decomposition, "save_archive",
                             lambda f: span("decomposition.save", f))
        self._patch_function(decomposition, "load_archive",
                             lambda f: span("decomposition.load", f))

        self._patch_function(tableio, "write_table", lambda f: span(
            "tableio.write", f,
            lambda args, out: {"tableio.write.mb": args[1].size * 8 / MIB}))
        self._patch_function(tableio, "read_table", lambda f: span(
            "tableio.read", f,
            lambda args, out: {"tableio.read.mb": out[0].nbytes / MIB}))

        for suite in ("range", "decay", "reconstruction", "positivity", "regularity"):
            self._patch_function(verification, f"{suite}_suite",
                                 lambda f, s=suite: span(f"verification.{s}", f))
        self._patch_function(verification, "dense_level_matrices",
                             lambda f: span("verification.dense_levels", f))
        self._patch_function(calibration, "corpus_records",
                             lambda f: span("calibration.corpus", f))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def setup(config_path: str):
    """What every command pays first: config read, coefficients built and checked."""
    return cli.build_from_config(cli.load_config(config_path))


def run_command(argv: list[str]) -> tuple[int, float]:
    """One CLI command in this process; returns its exit code and wall time."""
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        code = -1
    elapsed = time.perf_counter() - start
    if code != 0:
        sys.stderr.write(f"frdkit {' '.join(argv)} exited {code}: "
                         f"{captured.getvalue()}\n")
    return code, elapsed


def run_session(commands: list[list[str]], traced: bool) -> dict:
    tracer = Tracer()
    if traced:
        tracer.install()
    ops = []
    start = time.perf_counter()
    try:
        for argv in commands:
            code, elapsed = run_command(argv)
            ops.append({"command": argv[0], "code": code, "s": elapsed})
    finally:
        session_s = time.perf_counter() - start
        tracer.uninstall()
    for op in ops:
        tracer.values[f"cli.{op['command']}.s"] += op["s"]
    return {"ops": ops, "session_s": session_s, "layers": dict(tracer.values)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    setup(args.config)
    if args.setup_only:
        return 0
    out = sys.stdout

    def reply(obj: dict) -> None:
        out.write(json.dumps(obj) + "\n")
        out.flush()

    reply({"ready": True, "frdkit": frdkit.__file__})
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("stop"):
            break
        reply(run_session(request["commands"], request["traced"]))
    reply({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB})
    return 0


if __name__ == "__main__":
    sys.exit(main())
