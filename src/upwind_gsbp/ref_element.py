"""Single-cell nodal machinery on the reference interval (-1, 1).

Provides Legendre-Gauss-Lobatto (LGL) quadrature, whose weights w make up
the diagonal mass matrix M = diag(w), the Lagrange differentiation matrix D
with D[j, k] = L_k'(xi_j), and the boundary interpolation vectors L(-1), L(1).

The cell-level SBP identity

    M D + D^T M = L(1) L(1)^T - L(-1) L(-1)^T

holds to machine precision and is the building block for all global
operator assembly in :mod:`upwind_gsbp.operators`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DEGREE = 16

__all__ = [
    "ReferenceElement",
    "build_lgl",
]


@dataclass(frozen=True)
class ReferenceElement:
    """Nodal reference element: quadrature rule plus local matrices.

    Attributes:
        degree: polynomial degree N (N+1 nodes).
        nodes: quadrature nodes in [-1, 1], strictly increasing.
        weights: positive quadrature weights, summing to 2.
        diff: differentiation matrix, diff[j, k] = L_k'(nodes[j]).
        boundary_left: Lagrange basis evaluated at -1, the unit vector e_0.
        boundary_right: Lagrange basis evaluated at +1, the unit vector e_N.
    """

    degree: int
    nodes: np.ndarray
    weights: np.ndarray
    diff: np.ndarray
    boundary_left: np.ndarray
    boundary_right: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.degree + 1


def _legendre_pair(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate (P_n, P_{n-1}), n >= 1, via the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(1, n):
        p, p_prev = ((2 * k + 1) * x * p - k * p_prev) / (k + 1), p
    return p, p_prev


def _lgl_nodes_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """LGL nodes and weights for degree n (n+1 points).

    Nodes are the roots of (1 - x^2) P_n'(x), found by Newton iteration from
    Chebyshev-Gauss-Lobatto initial guesses; weights are 2 / (n (n+1) P_n^2).
    """
    x = -np.cos(np.pi * np.arange(n + 1) / n)
    for _ in range(200):
        p, p_prev = _legendre_pair(x, n)
        dx = (x * p - p_prev) / ((n + 1) * p)
        x = x - dx
        if np.max(np.abs(dx)) <= 1e-15:
            break
    else:
        raise RuntimeError(f"LGL Newton iteration failed to converge for N={n}")
    # pin the endpoints and enforce exact symmetry about 0
    x[0], x[-1] = -1.0, 1.0
    x = 0.5 * (x - x[::-1])
    p, _ = _legendre_pair(x, n)
    w = 2.0 / (n * (n + 1) * p**2)
    w = 0.5 * (w + w[::-1])
    return x, w


def _barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    return 1.0 / np.prod(diff, axis=1)


def _diff_matrix(nodes: np.ndarray) -> np.ndarray:
    """Lagrange differentiation matrix via barycentric weights.

    Diagonal entries use the negative-sum trick so every row sums to zero
    exactly, which keeps the derivative of constants at machine zero.
    """
    w = _barycentric_weights(nodes)
    dx = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(dx, 1.0)
    d = (w[None, :] / w[:, None]) / dx
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -np.sum(d, axis=1))
    return d


def build_lgl(degree: int) -> ReferenceElement:
    """Build the LGL reference element of the given polynomial degree.

    Raises:
        ValueError: if degree is outside [1, 16].
    """
    if not isinstance(degree, (int, np.integer)) or not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree must be an integer in [1, {MAX_DEGREE}], got {degree!r}")
    nodes, weights = _lgl_nodes_weights(int(degree))
    # -1 and +1 are the first and last nodes, pinned exactly
    unit = np.eye(nodes.size)
    return ReferenceElement(
        degree=int(degree),
        nodes=nodes,
        weights=weights,
        diff=_diff_matrix(nodes),
        boundary_left=unit[0],
        boundary_right=unit[-1],
    )
