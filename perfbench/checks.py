"""Correctness checks on frdkit's outputs, made without importing frdkit.

Tables are read with numpy from their raw ``.bin``/``.json`` pairs, and the
divergence-form operator is applied with this module's own stencil to the
archived coefficients.  Every check raises ``CheckError`` on a wrong output.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

#: Max-norm residual of A·Σ_k K_k(·, x0) against δ_{x0} − 1/N; the solves
#: stop at a relative residual of 1e-10, so this leaves two orders of margin.
TELESCOPING_TOL = 1e-8
#: Level-1 far-field spread (max − min beyond sup-distance 1.5) over its sup.
RANGE_TOL = 1e-6
LEVEL1_RADIUS = 1.5
#: Asymmetry and most negative eigenvalue of a level matrix, over its largest
#: eigenvalue.
MATRIX_TOL = 1e-8
#: z-score cut for sample-covariance statistics; at 6.5 a correct sampler
#: fails with probability below 1e-6 over all entries of a side-9 covariance.
SAMPLE_Z = 6.5


class CheckError(Exception):
    """An output of the program is wrong."""


def read_table(stem: Path) -> tuple[np.ndarray, dict]:
    """A little-endian float64 table, its content hash checked."""
    header = json.loads(stem.with_suffix(".json").read_text())
    raw = stem.with_suffix(".bin").read_bytes()
    if hashlib.sha256(raw).hexdigest() != header["sha256"]:
        raise CheckError(f"{stem}.bin does not match its recorded hash")
    return np.frombuffer(raw, dtype="<f8").reshape(header["shape"]), header


class Archive:
    """Geometry, coefficients and kernel slices of a decomposition archive."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        manifest = json.loads((self.directory / "manifest.json").read_text())
        torus = manifest["torus"]
        self.d, self.m = torus["d"], torus["m"]
        self.side = torus["L"] ** torus["N"]
        self.sites = self.side ** self.d
        self.levels = manifest["levels"]
        self.sources = manifest["sources"]
        self.coefficients, _ = read_table(self.directory / "coefficients")
        self.kernels = {}
        for key, entry in manifest["kernels"].items():
            k, s = (int(v) for v in key.split(":"))
            values, _ = read_table(self.directory / entry["stem"])
            self.kernels[(k, s)] = values


def apply_operator(A: np.ndarray, u: np.ndarray, d: int, side: int) -> np.ndarray:
    """∇*A∇u on the periodic lattice, for fields u of shape (sites, m, B).

    ∇_j u(x) = u(x + e_j) − u(x) and (∇*_j F)(x) = F(x − e_j) − F(x); the
    coefficient blocks A (sites, m·d, m·d) act on the gradient components
    ordered (component, axis).
    """
    sites, m, batch = u.shape
    grid = u.reshape((side,) * d + (m, batch))
    grad = np.stack([np.roll(grid, -1, axis=j) - grid for j in range(d)], axis=d + 1)
    flux = np.einsum("spq,sqb->spb", A, grad.reshape(sites, m * d, batch))
    flux = flux.reshape((side,) * d + (m, d, batch))
    out = np.zeros(grid.shape)
    for j in range(d):
        out += np.roll(flux[..., j, :], 1, axis=j) - flux[..., j, :]
    return out.reshape(sites, m, batch)


def sup_distances(source: int, d: int, side: int) -> np.ndarray:
    """Periodic sup-norm distance of every site from the source."""
    coords = np.indices((side,) * d).reshape(d, -1)
    delta = np.abs(coords - np.array(np.unravel_index(source, (side,) * d))[:, None])
    return np.minimum(delta, side - delta).max(axis=0)


def check_telescoping(arch: Archive) -> float:
    """A·Σ_k K_k(·, x0) = δ_{x0} − 1/N at every stored source; returns the worst residual."""
    worst = 0.0
    for s in arch.sources:
        total = sum(arch.kernels[(k, s)] for k in range(1, arch.levels + 1))
        image = apply_operator(arch.coefficients, total, arch.d, arch.side)
        expected = np.broadcast_to(-np.eye(arch.m) / arch.sites, image.shape).copy()
        expected[s] += np.eye(arch.m)
        worst = max(worst, float(np.abs(image - expected).max()))
    if not worst <= TELESCOPING_TOL:
        raise CheckError(f"telescoping residual {worst:.3e} > {TELESCOPING_TOL:g}")
    return worst


def check_level1_range(arch: Archive) -> float:
    """Level 1 is constant beyond sup-distance 1.5; returns the worst relative spread."""
    worst = 0.0
    for s in arch.sources:
        values = arch.kernels[(1, s)]
        far = values[sup_distances(s, arch.d, arch.side) >= LEVEL1_RADIUS]
        spread = (far.max(axis=0) - far.min(axis=0)).max() / np.abs(values).max()
        worst = max(worst, float(spread))
    if not worst <= RANGE_TOL:
        raise CheckError(f"level-1 far-field spread {worst:.3e} > {RANGE_TOL:g}")
    return worst


def level_matrices(arch: Archive) -> list[np.ndarray]:
    """Mean-projected level matrices assembled from all-source kernel slices."""
    if sorted(arch.sources) != list(range(arch.sites)):
        raise CheckError("level matrices need kernels at every source")
    n = arch.sites * arch.m
    P = np.eye(n) - np.kron(np.ones((arch.sites, arch.sites)) / arch.sites,
                            np.eye(arch.m))
    mats = []
    for k in range(1, arch.levels + 1):
        # row (y, a), column (x, b) holds K_k(y, x)[a, b]
        M = np.stack([arch.kernels[(k, x)] for x in range(arch.sites)], axis=2)
        mats.append(P @ M.reshape(n, n) @ P)
    return mats


def check_level_matrices(mats: list[np.ndarray]) -> float:
    """Each level matrix is symmetric and positive semidefinite; returns the worst ratio."""
    worst = 0.0
    for k, M in enumerate(mats, start=1):
        eig = np.linalg.eigvalsh(0.5 * (M + M.T))
        scale = eig[-1]
        asym = float(np.abs(M - M.T).max()) / scale
        negative = max(0.0, -float(eig[0])) / scale
        if not (scale > 0 and asym <= MATRIX_TOL and negative <= MATRIX_TOL):
            raise CheckError(f"level {k}: asymmetry {asym:.3e}, "
                             f"negative eigenvalue {negative:.3e} of the largest")
        worst = max(worst, asym, negative)
    return worst


def dense_operator(arch: Archive) -> np.ndarray:
    """The operator as a dense (sites·m)² matrix, from this module's stencil."""
    n = arch.sites * arch.m
    basis = np.eye(n).reshape(arch.sites, arch.m, n)
    return apply_operator(arch.coefficients, basis, arch.d, arch.side).reshape(n, n)


def check_samples(samples: np.ndarray, covariance: np.ndarray) -> float:
    """Samples of shape (count, sites, m) have the given mean-zero covariance.

    Two statistics, both with tolerances from the sample count: every entry
    of the sample covariance against its standard error, and the variance
    along each eigenvector of the target (independent χ² draws) both one by
    one and averaged.  Returns the largest z-score seen.
    """
    count = samples.shape[0]
    X = samples.reshape(count, -1)
    C = covariance
    S = X.T @ X / count
    var = np.diag(C)
    entry_z = np.abs(S - C) / np.sqrt((np.outer(var, var) + C ** 2) / count)
    w, V = np.linalg.eigh(C)
    keep = w > 1e-9 * w[-1]
    ratios = ((X @ V[:, keep]) ** 2).mean(axis=0) / w[keep]
    each_z = np.abs(ratios - 1.0) / np.sqrt(2.0 / count)
    mean_z = abs(ratios.mean() - 1.0) / np.sqrt(2.0 / (count * keep.sum()))
    worst = float(max(entry_z.max(), each_z.max(), mean_z))
    if not worst <= SAMPLE_Z:
        raise CheckError(f"sample covariance z-score {worst:.2f} > {SAMPLE_Z:g}")
    return worst


def check_reports(path: Path, expect_asserted: bool) -> int:
    """No asserted record in a JSON-lines report fails; returns the number asserted."""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    asserted = [r for r in records if r.get("asserted") and "pass" in r]
    failed = [r["check"] for r in asserted if not r["pass"]]
    if failed:
        raise CheckError(f"{path.name}: asserted checks failed: {failed}")
    if expect_asserted and not asserted:
        raise CheckError(f"{path.name}: no asserted checks")
    if not records:
        raise CheckError(f"{path.name}: no records")
    return len(asserted)
