"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk-s27 --seed 1 --seconds 26 --trace 0

Run from the root of a frdkit source tree.  It times set-up in fresh
interpreters, then starts one measured process (``worker.py``) that drives
the ``frdkit`` CLI as a closed loop with one client: sessions of commands,
each command waiting for the previous one, repeated until ``--seconds`` have
passed.  Between sessions this process checks every command's output with
``checks.py``, outside the timed region.  With ``--trace 1`` a warm-up
session is followed by alternating traced and untraced sessions, and the
per-layer metrics of the traced ones are printed instead of the end-to-end
metrics.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# The measured process gets the same setting through its environment.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_REPEATS = 5


def start_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH", "")) if p)
    return env


def time_setup(config_path: Path, env: dict) -> float:
    """Median wall time from a fresh interpreter to a built, checked operator."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(WORKER), "--config", str(config_path),
                        "--setup-only"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def check_op(argv: list[str], archive: Path, state: dict) -> None:
    """Raise ``checks.CheckError`` if the command's output is wrong."""
    command = argv[0]
    if command == "decompose":
        arch = state["archive"] = checks.Archive(archive)
        checks.check_telescoping(arch)
        checks.check_level1_range(arch)
        if len(arch.sources) == arch.sites:
            checks.check_level_matrices(checks.level_matrices(arch))
    elif command == "verify":
        suite = argv[argv.index("--suite") + 1]
        checks.check_reports(archive / "reports" / f"verify_{suite}.jsonl", True)
    elif command == "report":
        checks.check_reports(archive / "reports" / "report.jsonl", False)
    elif command == "sample":
        arch = state["archive"]
        samples, _ = checks.read_table(archive / "samples" / "samples")
        checks.check_samples(samples, np.linalg.pinv(checks.dense_operator(arch)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "frdkit" / "__init__.py").is_file():
        sys.stderr.write(f"no frdkit sources under {src}; run from the repository root\n")
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    work = root / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    worker = None
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(workloads.config(args.workload, args.seed)))
        env = start_env(src)
        setup_s = None if args.trace else time_setup(config_path, env)

        worker = subprocess.Popen(
            [sys.executable, str(WORKER), "--config", str(config_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)

        def ask(obj: dict) -> dict:
            worker.stdin.write(json.dumps(obj) + "\n")
            worker.stdin.flush()
            line = worker.stdout.readline()
            if not line:
                raise RuntimeError("the measured process ended early")
            return json.loads(line)

        ready = json.loads(worker.stdout.readline())
        if not Path(ready["frdkit"]).resolve().is_relative_to(src.resolve()):
            raise RuntimeError(f"imported frdkit from {ready['frdkit']}, not {src}")

        # A traced run starts with a warm-up session, checked like the others
        # but left out of every median: only the first session pays for the
        # regularity corpus fixtures that later sessions reuse, which would
        # bias the traced-minus-untraced overhead.  Untraced runs keep every
        # session, since more samples steady the medians more than dropping
        # the first session does.
        sessions = {False: [], True: []}
        attempted = failed = 0
        correct = True
        start = time.monotonic()
        warmup = bool(args.trace)
        while True:
            traced = (bool(args.trace) and not warmup
                      and len(sessions[True]) == len(sessions[False]))
            # A fresh archive each session, all deleted at the end: on ext4,
            # replacing or deleting hundreds of just-written tables makes the
            # next session's writes wait on writeback.
            archive = work / f"archive-{attempted}"
            commands = workloads.session(args.workload, args.seed, str(config_path),
                                         str(archive))
            result = ask({"commands": commands, "traced": traced})
            state: dict = {}
            for argv, op in zip(commands, result["ops"]):
                attempted += 1
                if op["code"] != 0:
                    failed += 1
                    continue
                try:
                    check_op(argv, archive, state)
                except (checks.CheckError, OSError, KeyError, ValueError) as exc:
                    sys.stderr.write(f"{' '.join(argv)}: wrong output: {exc}\n")
                    failed += 1
                    correct = False
            if not warmup:
                sessions[traced].append(result)
            warmup = False
            # a traced run stops on an untraced session, so both kinds are
            # measured equally often
            balanced = not args.trace or len(sessions[True]) == len(sessions[False])
            if time.monotonic() - start >= args.seconds and sessions[False] and balanced:
                break
        peak_rss_mb = ask({"stop": True})["peak_rss_mb"]
        worker.wait(timeout=60)

        untraced = sessions[False]
        session_s = statistics.median(r["session_s"] for r in untraced)
        if args.trace:
            traced = sessions[True]
            values = {name: statistics.median(r["layers"].get(name, 0.0) for r in traced)
                      for name in names}
            values["trace.overhead.s"] = (
                statistics.median(r["session_s"] for r in traced) - session_s)
        else:
            values = {
                "setup_s": setup_s,
                "decompose_s": statistics.median(
                    op["s"] for r in untraced for op in r["ops"]
                    if op["command"] == "decompose"),
                "session_s": session_s,
                "peak_rss_mb": peak_rss_mb,
            }
    finally:
        if worker is not None and worker.poll() is None:
            worker.kill()
            worker.wait()
        shutil.rmtree(work, ignore_errors=True)

    def rounded(values) -> list[float]:
        return [round(v, 3) for v in values]

    print(f"workload={args.workload} seed={args.seed} blas_threads={BLAS_THREADS} "
          f"session_s untraced={rounded(r['session_s'] for r in sessions[False])} "
          f"traced={rounded(r['session_s'] for r in sessions[True])} "
          f"decompose_s untraced={rounded(r['ops'][0]['s'] for r in sessions[False])}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
