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

With omega = exp(2 pi i / K) and dx = (x_b - x_a) / K, the interior cell
blocks A11, A12, A21 of D-(theta) (``operators.cell_blocks``) give

    D-_hat(theta, k) = (2/dx) (A11 + A12 omega^k + A21 omega^-k),

so A_hat[k] = -a D-_hat(theta_adv, k), L_hat[k] = c D-_hat(theta_diff, k)
D-_hat(-theta_diff, k) since D+(theta) = D-(-theta), and M_loc = (dx/2) w
(the element-level Fourier analysis of Hu, Hussaini & Rasetarinera, JCP 151,
1999). ``FourierEngine`` builds the symbols of one problem;
``FourierEngine.problem`` builds the step maps of one run and certifies
them, and the resulting ``FourierProblem`` is what ``imex.integrate`` steps.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .imex import SOLVE_RTOL, ImexTableau, SolverFailure, run_step_plan
from .operators import cell_blocks
from .problems import AdvDiffConfig
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


class FourierEngine:
    """Per-wavenumber symbols of one linear split problem and one tableau.

    The problem is du/dt = A u + L u with A = -a D-(theta_adv) and
    L = c D-(theta_diff) D+(theta_diff) on the uniform periodic mesh of
    ``cfg``, whose LGL element is ``elem``. A step map is certified when its
    squared M-norm amplification is at most ``max_growth``.
    """

    def __init__(
        self,
        cfg: AdvDiffConfig,
        elem: ReferenceElement,
        tableau: ImexTableau,
        max_growth: float,
    ):
        n_cells = cfg.n_cells
        dx = (cfg.x_b - cfg.x_a) / n_cells
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
        # Parseval weights of the rfft coefficients, divided by K, laid out
        # like the (real, imag) pairs of a complex array viewed as float
        weights = np.full(self.a_hat.shape[0], 2.0)
        weights[0] = 1.0
        if n_cells % 2 == 0:
            weights[-1] = 1.0
        cell_weights = (weights / n_cells)[:, None] * self.m_cell[None, :]
        self.energy_weights = np.repeat(cell_weights.ravel(), 2)

    def step_maps(self, step_sizes: Sequence[float]) -> np.ndarray:
        """Maps S_k(h) by the sparse step's plan, shape (len(step_sizes), K//2+1, n, n)."""
        h = np.asarray(step_sizes, dtype=float)[:, None, None, None]
        eye = np.broadcast_to(np.eye(self.m_cell.size), self.a_hat.shape)
        return run_step_plan(
            self.tableau.step_plans[True, True],
            eye,
            h,
            0.0,
            lambda t, u: self.a_hat @ u,
            lambda u: self.l_hat @ u,
            lambda tau, rhs: (_checked_solve(eye - tau * self.l_hat, rhs), None),
        )

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
