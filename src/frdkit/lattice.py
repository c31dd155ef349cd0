"""Periodic lattice geometry and discrete calculus.

The domain is the d-dimensional torus of side ``L**N`` with ``m`` real
components per site.  Sites are stored row-major (C order) so that a flat
``(sites, m)`` array and its ``(side, ..., side, m)`` grid view share memory;
all stencil sweeps are ``np.roll`` on the grid view.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

#: Largest multi-index order supported by default; matches the C^3 smoothness
#: class of the coefficient fields.
MULTI_INDEX_CAP = 3


class LatticeError(ValueError):
    """Invalid lattice geometry or field usage."""


@dataclass(frozen=True)
class LatticeTorus:
    """Geometry of the periodic lattice ``(Z / L^N Z)^d`` with m components.

    ``L`` must be odd and at least 3 so that every site has a well defined
    nearest representative; ``d = 1`` is permitted for solver tests although
    the decay theory only applies for ``d >= 3``.
    """

    d: int
    m: int
    L: int
    N: int

    def __post_init__(self):
        if self.d < 1:
            raise LatticeError(f"dimension must be >= 1, got {self.d}")
        if self.m < 1:
            raise LatticeError(f"component count must be >= 1, got {self.m}")
        if self.L < 3 or self.L % 2 == 0:
            raise LatticeError(f"base scale must be an odd integer >= 3, got {self.L}")
        if self.N < 1:
            raise LatticeError(f"depth must be >= 1, got {self.N}")

    @property
    def side(self) -> int:
        return self.L ** self.N

    @property
    def sites(self) -> int:
        return self.side ** self.d

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.side,) * self.d

    def wrap(self, coords) -> np.ndarray:
        """Canonicalize coordinates into [0, side)^d."""
        return np.asarray(coords, dtype=np.int64) % self.side

    def index_of(self, coords) -> int:
        c = self.wrap(coords)
        if c.shape != (self.d,):
            raise LatticeError(f"expected {self.d} coordinates, got {c.shape}")
        return int(np.ravel_multi_index(tuple(c), self.shape))

    def site(self, x) -> int:
        """Index of x: an integer in [0, sites) as is, else d coordinates (wrapped)."""
        if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
            if not 0 <= x < self.sites:
                raise LatticeError(f"site {x} out of range [0, {self.sites})")
            return int(x)
        return self.index_of(x)

    def coords_of(self, index: int) -> tuple[int, ...]:
        return tuple(int(v) for v in np.unravel_index(int(index), self.shape))

    def all_coords(self) -> np.ndarray:
        """(sites, d) coordinates in row-major site order."""
        return np.stack(
            np.meshgrid(*[np.arange(self.side)] * self.d, indexing="ij"), axis=-1
        ).reshape(self.sites, self.d)

    def to_grid(self, flat: np.ndarray) -> np.ndarray:
        return flat.reshape(self.shape + flat.shape[1:])

    def to_flat(self, grid: np.ndarray) -> np.ndarray:
        return grid.reshape((self.sites,) + grid.shape[self.d:])


@dataclass(frozen=True)
class MultiIndex:
    """Per-axis difference exponents with a total-order cap."""

    exponents: tuple[int, ...]
    cap: int = MULTI_INDEX_CAP

    def __post_init__(self):
        if any(e < 0 for e in self.exponents):
            raise LatticeError(f"exponents must be nonnegative, got {self.exponents}")
        if self.order > self.cap:
            raise LatticeError(f"multi-index order {self.order} exceeds cap {self.cap}")

    @property
    def order(self) -> int:
        return sum(self.exponents)


def mean_zero_tolerance(values: np.ndarray):
    """Absolute tolerance on a component sum for a field to count as mean-zero.

    A (sites, m, B) block gets one tolerance per column.
    """
    sites = values.shape[0]
    return 1e-10 * np.sqrt(np.einsum("sm...,sm...->...", values, values)) * np.sqrt(sites)


def column_blocks(count: int, column_bytes: int, budget: int) -> list[slice]:
    """Consecutive slices of ``count`` columns, each within ``budget`` bytes.

    A slice always holds at least one column.
    """
    step = max(1, budget // column_bytes)
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


@dataclass(frozen=True)
class LatticeField:
    """A map from torus sites to R^m, stored as a read-only (sites, m) array."""

    torus: LatticeTorus
    values: np.ndarray
    mean_zero: bool = False

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if v.shape != (self.torus.sites, self.torus.m):
            raise LatticeError(
                f"field shape {v.shape} does not match torus "
                f"({self.torus.sites}, {self.torus.m})"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if self.mean_zero:
            sums = np.abs(v.sum(axis=0))
            if sums.max(initial=0.0) > mean_zero_tolerance(v):
                raise LatticeError(
                    f"field tagged mean-zero has component sums {sums}"
                )

    @staticmethod
    def zeros(torus: LatticeTorus) -> "LatticeField":
        """The zero field, tagged mean-zero."""
        return LatticeField(torus, np.zeros((torus.sites, torus.m)), True)

    def project_mean_zero(self) -> "LatticeField":
        return LatticeField(self.torus, self.values - self.values.mean(axis=0), True)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def dot(self, other: "LatticeField") -> float:
        return float(np.vdot(self.values, other.values))

    def __add__(self, other: "LatticeField") -> "LatticeField":
        return LatticeField(self.torus, self.values + other.values,
                            self.mean_zero and other.mean_zero)

    def __sub__(self, other: "LatticeField") -> "LatticeField":
        return LatticeField(self.torus, self.values - other.values,
                            self.mean_zero and other.mean_zero)

    def __mul__(self, scalar: float) -> "LatticeField":
        return LatticeField(self.torus, self.values * scalar, self.mean_zero)

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# distances


def dist_inf(x, y, torus: LatticeTorus) -> int:
    """Torus sup-distance: min over periodic translates of the l-infinity norm."""
    dx = np.abs(torus.wrap(x) - torus.wrap(y))
    return int(np.minimum(dx, torus.side - dx).max())


def distances_from(torus: LatticeTorus, x0) -> np.ndarray:
    """(sites,) sup-distance from the site x0, in row-major site order."""
    delta = np.abs(torus.all_coords() - torus.wrap(x0)[None, :])
    return np.minimum(delta, torus.side - delta).max(axis=1)


# ---------------------------------------------------------------------------
# discrete differences


def _roll(torus: LatticeTorus, flat: np.ndarray, axis: int, step: int) -> np.ndarray:
    return torus.to_flat(np.roll(torus.to_grid(flat), step, axis=axis))


def forward_diff_raw(torus: LatticeTorus, flat: np.ndarray, axis: int) -> np.ndarray:
    if not 0 <= axis < torus.d:
        raise LatticeError(f"axis {axis} out of range for d={torus.d}")
    return _roll(torus, flat, axis, -1) - flat


def backward_diff_raw(torus: LatticeTorus, flat: np.ndarray, axis: int) -> np.ndarray:
    if not 0 <= axis < torus.d:
        raise LatticeError(f"axis {axis} out of range for d={torus.d}")
    return _roll(torus, flat, axis, +1) - flat


def forward_diff(phi: LatticeField, axis: int) -> LatticeField:
    """Forward difference along one axis; telescoping keeps the sum at zero."""
    out = forward_diff_raw(phi.torus, phi.values, axis)
    return LatticeField(phi.torus, out, True)


def backward_diff(phi: LatticeField, axis: int) -> LatticeField:
    """Backward difference (the l2 adjoint of the forward difference)."""
    out = backward_diff_raw(phi.torus, phi.values, axis)
    return LatticeField(phi.torus, out, True)


def grad_multi_raw(torus: LatticeTorus, flat: np.ndarray, exponents) -> np.ndarray:
    """Repeated forward differences per axis, applied in ascending axis order.

    Shift operators commute, so the axis order is a pure convention.
    """
    out = flat
    for axis, reps in enumerate(exponents):
        for _ in range(reps):
            out = forward_diff_raw(torus, out, axis)
    return out


def grad_multi(phi: LatticeField, alpha: MultiIndex | tuple[int, ...]) -> LatticeField:
    """``grad_multi_raw`` of a field, for a multi-index within the order cap."""
    if not isinstance(alpha, MultiIndex):
        alpha = MultiIndex(tuple(alpha))
    torus = phi.torus
    if len(alpha.exponents) != torus.d:
        raise LatticeError(
            f"multi-index has {len(alpha.exponents)} axes, torus has {torus.d}"
        )
    out = grad_multi_raw(torus, phi.values, alpha.exponents)
    return LatticeField(torus, out, alpha.order > 0 or phi.mean_zero)


def gradient_stack_raw(torus: LatticeTorus, flat: np.ndarray) -> np.ndarray:
    """(sites, m, d) stack of forward differences along every axis.

    A trailing batch axis is kept last: (sites, m, B) gives (sites, m, d, B).
    """
    return np.stack(
        [forward_diff_raw(torus, flat, j) for j in range(torus.d)], axis=2
    )


def divergence_star_raw(torus: LatticeTorus, stack: np.ndarray) -> np.ndarray:
    """Adjoint divergence: sum of backward differences of the stack columns."""
    out = np.zeros(stack.shape[:2] + stack.shape[3:])
    for j in range(torus.d):
        out += backward_diff_raw(torus, stack[:, :, j], j)
    return out


# ---------------------------------------------------------------------------
# cubes


def cube_offsets(d: int, side_length: int) -> np.ndarray:
    """(side_length^d, d) lexicographic local offsets of an axis-aligned cube."""
    return np.stack(
        np.meshgrid(*[np.arange(side_length)] * d, indexing="ij"), axis=-1
    ).reshape(-1, d)


def cube_windows(d: int, side_length: int, count: int) -> list[tuple[slice, ...]]:
    """Slices ``slice(o, o + count)`` per axis, one tuple per cube offset o.

    Offsets come in ``cube_offsets`` order.  Window o of a grid padded by
    ``side_length - 1`` holds, at each of ``count`` anchors per axis, the
    value at anchor + o, so these windows visit every cube translate.
    """
    return [tuple(slice(o, o + count) for o in off)
            for off in product(range(side_length), repeat=d)]


def cube_sites(torus: LatticeTorus, anchor, side_length: int) -> np.ndarray:
    """Linear site indices of the cube anchored at its lexicographic corner.

    Cubes are identified by anchor corner plus side so the translate family
    used by the averaging operator is a plain coordinate shift.
    """
    if not 1 <= side_length <= torus.side:
        raise LatticeError(
            f"cube side {side_length} out of range [1, {torus.side}]"
        )
    grid = np.arange(torus.sites, dtype=np.int64).reshape(torus.shape)
    rolled = np.roll(grid, tuple(-torus.wrap(anchor)), axis=tuple(range(torus.d)))
    return rolled[(slice(0, side_length),) * torus.d].ravel()
