"""Block-Fourier IMEX stepping of linear problems on uniform periodic meshes.

On a uniform periodic mesh of K cells with n nodes each, the operators of
the linear split problem du/dt = A u + L u are block-circulant: block (i, j)
depends only on (j - i) mod K. The discrete Fourier transform over cells,
u_hat[k] = sum_i u[i] exp(-2 pi i k i / K), therefore turns A and L into
K independent n x n symbols

    A_hat[k] = sum_m A_m exp(+2 pi i k m / K),

and one IMEX step of size h into K independent n x n maps S_k(h). Real data
need only k = 0..K//2 (``rfft``); the other maps are complex conjugates. The
squared M-norm is sum_k w_k u_hat[k]^H M_loc u_hat[k] / K with w_k = 2 except
at k = 0 and, for even K, k = K/2 (Parseval), so the M-norm amplification of
one step is max_k ||M_loc^1/2 S_k M_loc^-1/2||_2.

``FourierEngine`` reads the symbols from assembled matrices once;
``FourierEngine.problem`` builds the step maps of one run and certifies
them, and the resulting ``FourierProblem`` is what ``imex.integrate`` steps.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .imex import SOLVE_RTOL, ImexTableau, SolverFailure

__all__ = ["FourierEngine", "FourierProblem"]

# Largest entry of A - circ(first block row of A), relative to the largest
# entry of A, that still counts as block-circulant. Assembled products carry
# roundoff: the rows of D2 = D- D+ differ from its first block row by about
# 1.5e-16 relative (8.9e-16 on entries of 6.1).
CIRCULANT_RTOL = 1e-13


def _block_symbols(mat, n: int, k_cells: int) -> np.ndarray:
    """Symbols A_hat[k], k = 0..K//2, of a block-circulant matrix, shape (K//2+1, n, n).

    Raises ValueError when ``mat`` is not block-circulant to CIRCULANT_RTOL.
    """
    mat = sp.csr_matrix(mat)
    if mat.shape != (n * k_cells, n * k_cells):
        raise ValueError(f"operator of shape {mat.shape}, expected {n * k_cells} square")
    # blocks[m] = A[0, m], the coupling of cell i to cell i + m
    blocks = mat[:n].toarray().reshape(n, k_cells, n).transpose(1, 0, 2)
    cells = np.arange(k_cells)
    circulant = sp.csr_matrix(mat.shape)
    for m in np.flatnonzero(np.abs(blocks).max(axis=(1, 2))):
        shift = sp.csr_matrix(
            (np.ones(k_cells), (cells, (cells + m) % k_cells)), shape=(k_cells, k_cells)
        )
        circulant = circulant + sp.kron(shift, blocks[m], format="csr")
    scale = float(np.max(np.abs(mat.data))) if mat.nnz else 0.0
    diff = (mat - circulant).tocsr()
    off = float(np.max(np.abs(diff.data))) if diff.nnz else 0.0
    if off > CIRCULANT_RTOL * scale:
        raise ValueError(
            f"operator is not block-circulant: entries differ by {off:.3e} "
            f"from shifted copies of the first block row (scale {scale:.3e})"
        )
    # sum_m A_m exp(+2 pi i k m / K) is the conjugate of the forward transform
    return np.fft.rfft(blocks, axis=0).conj()


def _checked_solve(g: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched solve of g x = rhs with one residual check over all blocks."""
    try:
        x = np.linalg.solve(g, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"Fourier stage block solve failed: {exc}") from exc
    axes = (-2, -1)
    residual = np.linalg.norm(g @ x - rhs, axis=axes)
    # same target as the sparse stage solve, with the same roundoff floor
    floor = 64.0 * np.finfo(float).eps * np.linalg.norm(g, axis=axes)
    tol = np.maximum(
        SOLVE_RTOL * np.linalg.norm(rhs, axis=axes), floor * np.linalg.norm(x, axis=axes)
    )
    if not np.all(residual <= tol):
        worst = float(np.nanmax(residual / np.linalg.norm(rhs, axis=axes)))
        raise SolverFailure(f"Fourier stage block residual {worst:.3e} relative")
    return x


class FourierEngine:
    """Per-wavenumber symbols of one linear split problem and one tableau.

    ``explicit`` and ``implicit`` are the assembled operators A and L of
    du/dt = A u + L u, ``m_diag`` the diagonal of the norm matrix, all on a
    uniform periodic mesh of ``n_cells`` cells. A step map is certified when
    its squared M-norm amplification is at most ``max_growth``.
    """

    def __init__(
        self,
        explicit,
        implicit,
        m_diag: np.ndarray,
        n_cells: int,
        tableau: ImexTableau,
        max_growth: float,
    ):
        n = m_diag.size // n_cells
        if n * n_cells != m_diag.size:
            raise ValueError(f"{m_diag.size} nodes do not split into {n_cells} cells")
        cell_m = m_diag.reshape(n_cells, n)
        if np.max(np.abs(cell_m - cell_m[0])) > CIRCULANT_RTOL * np.max(cell_m):
            raise ValueError("the norm matrix M is not the same on every cell")
        self.n_cells = n_cells
        self.tableau = tableau
        self.max_growth = max_growth
        self.a_hat = _block_symbols(explicit, n, n_cells)
        self.l_hat = _block_symbols(implicit, n, n_cells)
        self.m_cell = cell_m[0]
        self._m_half = np.sqrt(self.m_cell)
        # Parseval weights of the rfft coefficients, divided by K, laid out
        # like the (real, imag) pairs of a complex array viewed as float
        weights = np.full(self.a_hat.shape[0], 2.0)
        weights[0] = 1.0
        if n_cells % 2 == 0:
            weights[-1] = 1.0
        cell_weights = (weights / n_cells)[:, None] * self.m_cell[None, :]
        self.energy_weights = np.repeat(cell_weights.ravel(), 2)

    def step_maps(self, step_sizes: Sequence[float]) -> np.ndarray:
        """The batched one-step maps S_k(h), shape (len(step_sizes), K//2+1, n, n)."""
        tb = self.tableau
        s = tb.n_stages
        h = np.asarray(step_sizes, dtype=float)[:, None, None, None]
        eye = np.broadcast_to(np.eye(self.m_cell.size), self.a_hat.shape)
        start = np.broadcast_to(eye, h.shape[:1] + self.a_hat.shape).astype(complex)
        f = [None] * s
        lu = [None] * s

        def eval_stage(i: int, u: np.ndarray) -> None:
            if tb.reads_explicit[i]:
                f[i] = self.a_hat @ u
            if tb.reads_implicit[i]:
                lu[i] = self.l_hat @ u

        eval_stage(0, eye)
        for i in range(1, s):
            rhs = start
            for j in range(i):
                if f[j] is not None and tb.a_explicit[i, j] != 0.0:
                    rhs = rhs + h * tb.a_explicit[i, j] * f[j]
                if lu[j] is not None and tb.a_implicit[i, j] != 0.0:
                    rhs = rhs + h * tb.a_implicit[i, j] * lu[j]
            tau = h * tb.a_implicit[i, i]
            u_i = _checked_solve(eye - tau * self.l_hat, rhs) if tb.a_implicit[i, i] != 0.0 else rhs
            eval_stage(i, u_i)
        s_map = start
        for j in range(s):
            if f[j] is not None and tb.b_explicit[j] != 0.0:
                s_map = s_map + h * tb.b_explicit[j] * f[j]
            if lu[j] is not None and tb.b_implicit[j] != 0.0:
                s_map = s_map + h * tb.b_implicit[j] * lu[j]
        return s_map

    def step_map(self, h: float) -> np.ndarray:
        """The one-step maps S_k(h) of one step size, shape (K//2+1, n, n)."""
        return self.step_maps([h])[0]

    def amplification(self, s_maps: np.ndarray):
        """max_k ||M^1/2 S_k M^-1/2||_2, one value per batched step map."""
        scaled = self._m_half[:, None] * s_maps / self._m_half[None, :]
        return np.max(np.linalg.norm(scaled, ord=2, axis=(-2, -1)), axis=-1)

    def problem(self, step_sizes: Iterable[float]) -> "FourierProblem":
        """Step maps for the given step sizes, certified or not.

        The largest step's map is built and certified alone first, so an
        uncertified run usually costs one map; the others follow in one batch.
        """
        sizes = sorted(set(step_sizes), reverse=True)
        maps: dict[float, np.ndarray] = {}
        for batch in (sizes[:1], sizes[1:]):
            if not batch:
                continue
            s_maps = self.step_maps(batch)
            if np.any(self.amplification(s_maps) ** 2 > self.max_growth):
                return FourierProblem(self, {}, False)
            maps.update(zip(batch, s_maps))
        return FourierProblem(self, maps, True)


class FourierProblem:
    """The certified step maps of one run on the rfft coefficients.

    Its state is the (K//2+1, n) array of rfft coefficients over cells. It
    holds maps only for the step sizes it was built for, and only when every
    one of them is certified; any other step raises. It is built per run, so
    it is its own stepping session.
    """

    def __init__(self, engine: FourierEngine, maps: dict[float, np.ndarray], certified: bool):
        self.engine = engine
        self.certified = certified
        self._maps = maps

    def stepper(self, tableau: ImexTableau) -> "FourierProblem":
        if tableau.name != self.engine.tableau.name:
            raise ValueError(
                f"step maps built for {self.engine.tableau.name}, asked to step {tableau.name}"
            )
        return self

    def state(self, u0: np.ndarray) -> np.ndarray:
        cells = np.asarray(u0, dtype=float).reshape(self.engine.n_cells, -1)
        return np.fft.rfft(cells, axis=0)

    def advance(self, u_hat: np.ndarray, dt: float, t: float = 0.0) -> np.ndarray:
        s_map = self._maps.get(dt)
        if s_map is None:
            raise RuntimeError(f"no certified Fourier step map for step size {dt!r}")
        return (s_map @ u_hat[:, :, None])[:, :, 0]

    def energy(self, u_hat: np.ndarray) -> float:
        pairs = u_hat.view(float).ravel()
        return float(pairs @ (self.engine.energy_weights * pairs))

    def nodal(self, u_hat: np.ndarray) -> np.ndarray:
        return np.fft.irfft(u_hat, n=self.engine.n_cells, axis=0).ravel()
