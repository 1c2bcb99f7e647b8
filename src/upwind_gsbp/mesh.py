"""1D partition of (x_a, x_b) into K cells with affine maps to (-1, 1)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ref_element import ReferenceElement

__all__ = ["Mesh1D", "uniform_mesh", "physical_nodes"]


@dataclass(frozen=True)
class Mesh1D:
    """Partition of (x_a, x_b) into K cells of positive widths."""

    x_a: float
    x_b: float
    widths: np.ndarray
    left_edges: np.ndarray = field(init=False)

    def __post_init__(self):
        if not self.x_a < self.x_b:
            raise ValueError(f"need x_a < x_b, got ({self.x_a}, {self.x_b})")
        widths = np.asarray(self.widths, dtype=float)
        if widths.ndim != 1 or widths.size < 2:
            raise ValueError("need at least K = 2 cells")
        if np.any(widths <= 0):
            raise ValueError("cell widths must be positive")
        length = self.x_b - self.x_a
        if abs(np.sum(widths) - length) > 1e-12 * length:
            raise ValueError("cell widths must sum to x_b - x_a")
        object.__setattr__(self, "widths", widths)
        edges = self.x_a + np.concatenate(([0.0], np.cumsum(widths)[:-1]))
        object.__setattr__(self, "left_edges", edges)

    @property
    def n_cells(self) -> int:
        return self.widths.size


def uniform_mesh(x_a: float, x_b: float, n_cells: int) -> Mesh1D:
    """Uniform mesh with n_cells equal-width cells on (x_a, x_b)."""
    if not isinstance(n_cells, (int, np.integer)) or n_cells < 2:
        raise ValueError(f"need an integer cell count >= 2, got {n_cells!r}")
    return Mesh1D(x_a, x_b, np.full(int(n_cells), (x_b - x_a) / n_cells))


def physical_nodes(mesh: Mesh1D, elem: ReferenceElement) -> np.ndarray:
    """Physical node coordinates, cell-by-cell (interface nodes duplicated).

    Node v of cell i sits at xi_v * dx_i/2 + (x_i + x_{i+1})/2.
    """
    half = 0.5 * mesh.widths
    centers = mesh.left_edges + half
    return (centers[:, None] + half[:, None] * elem.nodes[None, :]).ravel()
