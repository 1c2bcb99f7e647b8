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
at k = 0 and, for even K, k = K/2 (Parseval): sum_k |v_k|^2 in the
M-orthonormal coordinates v_k = sqrt(w_k / K) M_loc^1/2 u_hat[k], which a
step maps to T_k v_k with T_k = M_loc^1/2 S_k M_loc^-1/2.

With omega = exp(2 pi i / K) and dx = 2 pi / K on DOMAIN, the interior cell
blocks A11, A12, A21 of D-(theta) (``operators.cell_blocks``) give

    D-_hat(theta, k) = (2/dx) (A11 + A12 omega^k + A21 omega^-k),

so A_hat[k] = -a D-_hat(theta_adv, k), L_hat[k] = c D-_hat(theta_diff, k)
D-_hat(-theta_diff, k) since D+(theta) = D-(-theta), and M_loc = (dx/2) w
(the element-level Fourier analysis of Hu, Hussaini & Rasetarinera, JCP 151,
1999). ``FourierEngine`` builds the symbols of one problem;
``FourierEngine.problem`` builds the maps T_k of one run and certifies them,
and the resulting ``FourierProblem`` is what ``imex.integrate`` steps.

A run is certified when max_k ||T_k||_2^2 <= max_growth at each of its step
sizes: an SVD of every map decides (``amplification``). The largest step
size's maps are built and decided first, so an uncertified run usually costs
one size's maps; the other sizes, most of which differ from the largest only
in the last ulp, follow in one batch.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .imex import SOLVE_RTOL, ImexTableau, SolverFailure, run_step_plan
from .operators import cell_blocks
from .problems import DOMAIN, AdvDiffConfig
from .ref_element import ReferenceElement

__all__ = ["FourierEngine", "FourierProblem"]


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


def amplification(t_maps: np.ndarray) -> np.ndarray:
    """max_k ||T_k||_2 of maps stacked (step size, k, n, n), one value per step size.

    Each ||T_k||_2 has the bits of np.linalg.norm(T_k, 2): the largest singular value.
    """
    return np.linalg.svd(t_maps, compute_uv=False).max(axis=(-2, -1))


class FourierEngine:
    """Per-wavenumber symbols of one linear split problem and one tableau.

    The problem is du/dt = A u + L u with A = -a D-(theta_adv) and
    L = c D-(theta_diff) D+(theta_diff) on the uniform periodic mesh of
    ``cfg`` over DOMAIN, whose LGL element is ``elem``. A step map is
    certified when its squared M-norm amplification is at most ``max_growth``.
    """

    def __init__(
        self,
        cfg: AdvDiffConfig,
        elem: ReferenceElement,
        tableau: ImexTableau,
        max_growth: float,
    ):
        n_cells = cfg.n_cells
        dx = (DOMAIN[1] - DOMAIN[0]) / n_cells
        # omega^k for k = 0..K//2
        phase = np.exp(2j * np.pi * np.arange(n_cells // 2 + 1) / n_cells)[:, None, None]

        def d_minus_hat(theta: float) -> np.ndarray:
            a11, a12, a21 = cell_blocks(elem, theta)
            return (2.0 / dx) * (a11 + a12 * phase + a21 * phase.conj())

        self.n_cells = n_cells
        self.tableau = tableau
        self.max_growth = max_growth
        self.a_hat = -cfg.a * d_minus_hat(cfg.theta_adv)
        self.l_hat = cfg.c * (d_minus_hat(cfg.theta_diff) @ d_minus_hat(-cfg.theta_diff))
        self.m_cell = 0.5 * dx * elem.weights
        self._m_half = np.sqrt(self.m_cell)
        # v_k = state_scale[k] * u_hat[k] with the Parseval weights w_k
        k = np.arange(n_cells // 2 + 1)
        weights = np.where((k == 0) | (2 * k == n_cells), 1.0, 2.0)
        self.state_scale = np.sqrt(weights / n_cells)[:, None] * self._m_half

    def step_maps(self, step_sizes: Sequence[float]) -> np.ndarray:
        """Maps S_k(h) by the sparse step's plan, shape (len(step_sizes), K//2+1, n, n)."""
        h = np.asarray(step_sizes, dtype=float)[:, None, None, None]
        eye = np.broadcast_to(np.eye(self.m_cell.size), self.a_hat.shape)
        return run_step_plan(
            self.tableau.step_plan,
            eye,
            h,
            0.0,
            lambda t, u: self.a_hat @ u,
            lambda u: self.l_hat @ u,
            lambda tau, rhs: (_checked_solve(eye - tau * self.l_hat, rhs), None),
        )

    def orthonormal_maps(self, step_sizes: Sequence[float]) -> np.ndarray:
        """T_k = M^1/2 S_k M^-1/2, the maps acting on the state v_k, shaped as step_maps."""
        return self._m_half[:, None] * self.step_maps(step_sizes) / self._m_half[None, :]

    def problem(self, step_sizes: Iterable[float]) -> "FourierProblem | None":
        """Orthonormal step maps for the given step sizes; None unless all are certified.

        The largest size is decided alone, then the others in one batch.
        """
        sizes = sorted(set(step_sizes), reverse=True)
        maps = {}
        for batch in (sizes[:1], sizes[1:]):
            if batch:
                t_maps = self.orthonormal_maps(batch)
                if np.max(amplification(t_maps)) ** 2 > self.max_growth:
                    return None
                maps.update(zip(batch, t_maps))
        return FourierProblem(self, maps)


class FourierProblem:
    """The certified orthonormal step maps of one run.

    Its state is v_k = sqrt(w_k / K) M^1/2 u_hat[k] for k = 0..K//2, stored
    as a (K//2+1, n, 1) array: a step is v_k <- T_k v_k and the squared M-norm
    is sum_k |v_k|^2. It holds maps only for the step sizes it was built
    for, all of them certified; any other step raises. It is built per run,
    so it is its own stepping session.
    """

    def __init__(self, engine: FourierEngine, maps: dict[float, np.ndarray]):
        self.engine = engine
        self._maps = maps

    def stepper(self, tableau: ImexTableau) -> "FourierProblem":
        if tableau.name != self.engine.tableau.name:
            raise ValueError(
                f"step maps built for {self.engine.tableau.name}, asked to step {tableau.name}"
            )
        return self

    def state(self, u0: np.ndarray) -> np.ndarray:
        cells = np.asarray(u0, dtype=float).reshape(self.engine.n_cells, -1)
        return (self.engine.state_scale * np.fft.rfft(cells, axis=0))[:, :, None]

    def advance(self, v: np.ndarray, dt: float, t: float = 0.0) -> np.ndarray:
        t_map = self._maps.get(dt)
        if t_map is None:
            raise RuntimeError(f"no certified Fourier step map for step size {dt!r}")
        return t_map @ v

    def energy(self, v: np.ndarray) -> float:
        pairs = v.view(float).ravel()
        return float(pairs @ pairs)

    def nodal(self, v: np.ndarray) -> np.ndarray:
        u_hat = v[:, :, 0] / self.engine.state_scale
        return np.fft.irfft(u_hat, n=self.engine.n_cells, axis=0).ravel()
