"""Uniform tensor grids on intervals and rectangles.

Grid functions ("fields") are plain float ndarrays of shape ``mesh.shape``:
``(n,)`` in 1D and ``(nx, ny)`` in 2D, boundary nodes included.  Quadrature
is the composite trapezoidal rule, consistent with the second-order spatial
discretization used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "Mesh",
    "build_mesh",
    "integrate",
    "sup_norm",
    "positive_part_l2",
]


@dataclass(frozen=True)
class Mesh:
    """A uniform grid on [0, L] (1D) or [0, Lx] x [0, Ly] (2D) with
    ``counts`` nodes per axis, boundary included.

    Lengths are stored as floats and counts as ints, in tuples.  A mesh
    checks itself: dim is 1 or 2, there is one length and one count per
    axis, each length is finite and lies in [1e-100, 1e100], so that
    1/h**2 and lambda1 = sum (pi/L)**2 stay far inside the float range, and
    each count is at least 3.  Each error names the field at fault first,
    as ``"lengths: ..."``, so a scenario parser can prefix its JSON path.
    """

    dim: int
    lengths: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigurationError(f"dim: must be 1 or 2, got {self.dim!r}")
        lengths = tuple(float(L) for L in self.lengths)
        counts = tuple(int(n) for n in self.counts)
        for name, values in (("lengths", lengths), ("counts", counts)):
            if len(values) != self.dim:
                raise ConfigurationError(f"{name}: expected {self.dim} value(s), got {values}")
        if not all(1e-100 <= L <= 1e100 for L in lengths):
            raise ConfigurationError(f"lengths: must be finite and lie in [1e-100, 1e100], got {lengths}")
        if any(n < 3 for n in counts):
            raise ConfigurationError(f"counts: must be >= 3, got {counts}")
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "counts", counts)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.counts

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / (n - 1) for L, n in zip(self.lengths, self.counts))

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        return tuple(np.linspace(0.0, L, n) for L, n in zip(self.lengths, self.counts))

    @cached_property
    def coords(self) -> tuple[np.ndarray, ...]:
        """Node coordinates broadcast to the grid shape (one array per axis)."""
        return tuple(np.meshgrid(*self.axes, indexing="ij"))

    @cached_property
    def quad_weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights, the outer product of the axes'."""
        ws = []
        for h, n in zip(self.spacing, self.counts):
            w = np.full(n, h)
            w[0] = w[-1] = h / 2.0
            ws.append(w)
        return reduce(np.multiply.outer, ws)

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        mask = np.ones(self.shape, dtype=bool)
        mask[(slice(1, -1),) * self.dim] = False
        return mask


def build_mesh(dim: int, lengths, counts) -> Mesh:
    """Uniform grid with ``counts`` nodes (boundary included) per axis."""
    return Mesh(dim, tuple(lengths), tuple(counts))


def integrate(mesh: Mesh, f: np.ndarray) -> float:
    """Composite trapezoidal rule over the domain."""
    f = np.asarray(f)
    if f.shape != mesh.shape:
        raise ConfigurationError(f"field shape {f.shape} does not match mesh {mesh.shape}")
    return float(np.add.reduce(mesh.quad_weights * f, axis=None))


def sup_norm(f: np.ndarray) -> float:
    return float(np.max(np.abs(f)))


def positive_part_l2(mesh: Mesh, f: np.ndarray) -> float:
    """Discrete L2 norm of max(f, 0)."""
    return math.sqrt(integrate(mesh, np.square(np.maximum(f, 0.0))))
