"""The benchmark's workloads: one frdkit config and one closed-loop session each.

A session is the list of CLI commands a user at a desk would type, in order;
each waits for the previous one.  Every input that varies between runs (the
kernel sources, the ``verify`` and ``sample`` seeds) is drawn from the
benchmark seed, so the same seed gives the same session.
"""

from __future__ import annotations

import random
from typing import NamedTuple

SAMPLE_COUNT = 4000


def _eye(d: int) -> list[list[float]]:
    return [[1.0 if i == j else 0.0 for j in range(d)] for i in range(d)]


def _coefficients(d: int, L: int, N: int, perturbed: bool) -> dict:
    section = {"d": d, "m": 1, "L": L, "N": N, "A0": _eye(d), "epsilon": 0.0}
    if perturbed:
        section.update(
            epsilon=0.05,
            modes=[{"frequency": [1] + [0] * (d - 1), "amplitude": _eye(d)}],
            budget=20.0,
        )
    return section


class Workload(NamedTuple):
    coefficients: dict
    plan: dict | None          # None: the default plan
    sources: int | str         # how many sources the seed draws, or "all"
    suites: tuple[str, ...]    # verify suites, in session order
    samples: bool              # whether the session ends with ``sample``


WORKLOADS = {
    # d = 2 keeps the all-source archive and the dense oracles within one
    # short session; every per-source and per-vector layer still runs.
    "oracle-s9": Workload(_coefficients(2, 3, 2, True), None, "all", ("all",), True),
    # Side 15 is the smallest cube torus on which the side-5 local matrices
    # exceed the smoother's cache budget, so every application reassembles them.
    "chunked-c5": Workload(_coefficients(3, 15, 1, True),
                           {"cube_sides": [1, 5], "range_radii": [2.5, 12.5]},
                           1, ("range",), False),
    # The default plan (1, 3, 9) cannot run perturbed at side 27 (its cube-9
    # chunk needs 8.11 GiB), so desk scale uses cube sides (1, 3).
    "desk-s27": Workload(_coefficients(3, 3, 3, True),
                         {"cube_sides": [1, 3], "range_radii": [1.5, 4.5]},
                         3, ("decay",), False),
    "const-s27": Workload(_coefficients(3, 3, 3, False), None, 1, ("decay",), False),
}


def sites_of(coefficients: dict) -> int:
    return (coefficients["L"] ** coefficients["N"]) ** coefficients["d"]


def config(name: str, seed: int) -> dict:
    """The frdkit config of a workload, with its sources drawn from the seed."""
    w = WORKLOADS[name]
    sources = w.sources
    if sources != "all":
        sites = range(sites_of(w.coefficients))
        sources = sorted(random.Random(seed).sample(sites, sources))
    cfg = {"coefficients": w.coefficients, "sources": sources}
    if w.plan is not None:
        cfg["plan"] = w.plan
    return cfg


def session(name: str, seed: int, config_path: str, archive: str) -> list[list[str]]:
    """The CLI argument lists of one session, in the order they run."""
    w = WORKLOADS[name]
    rng = random.Random(seed + 1)
    verify_seed, sample_seed = rng.randrange(1 << 16), rng.randrange(1 << 16)
    commands = [["decompose", "--config", config_path, "--out", archive]]
    commands += [["verify", archive, "--suite", suite, "--seed", str(verify_seed)]
                 for suite in w.suites]
    commands.append(["report", archive])
    if w.samples:
        commands.append(["sample", archive, "--count", str(SAMPLE_COUNT),
                         "--seed", str(sample_seed)])
    return commands
