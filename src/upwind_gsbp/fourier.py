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

With omega = exp(2 pi i / K) and the uniform cell width dx, the interior cell
blocks A11, A12, A21 of D-(theta) (the first three ``operators.cell_blocks``)
give the symbols (``operators.d_minus_symbol``)

    D-_hat(theta, k) = (2/dx) (A11 + A12 omega^k + A21 omega^-k),

so A_hat[k] = -a D-_hat(theta_adv, k), L_hat[k] = c D-_hat(theta_diff, k)
D-_hat(-theta_diff, k) (``operators.d2_symbol``) since D+(theta) =
D-(-theta), and M_loc = (dx/2) w, every cell's block of the assembled norm
(the element-level Fourier analysis of Hu, Hussaini & Rasetarinera, JCP 151,
1999). ``FourierEngine`` builds the symbols of one discretized problem;
``FourierEngine.problem`` builds and certifies the maps T_k of the steps
``imex.integrate`` takes from dt to t_final (``imex.step_times``), and the
resulting ``FourierProblem`` is what ``integrate`` steps.

A run is certified when max_k ||T_k||_2^2 <= 1 + CERTIFIED_GROWTH at each of
its step sizes: an SVD of every map decides (``amplification``). The
largest step size's maps are built and decided first, so an uncertified run
usually costs one size's maps; the other sizes, most of which differ from
the largest only in the last ulp, follow in one batch.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .imex import (
    ENERGY_GROWTH_RTOL,
    SOLVE_RTOL,
    ImexTableau,
    SolverFailure,
    run_step_plan,
    step_times,
)
from .operators import d2_symbol, d_minus_symbol
from .problems import Discretization

__all__ = ["FourierEngine", "FourierProblem"]

# A scan probe steps in Fourier space only when every step map it applies has
# squared M-norm amplification at most 1 + CERTIFIED_GROWTH, a fifth of the
# scan's per-step slack ENERGY_GROWTH_RTOL. Then no state gains more than that
# factor of energy in one exact step, and the remaining 8e-13 of the slack
# (about 3600 ulps) covers the roundoff of one computed step and of the two
# energies compared, so a certified probe's verdict is "stable" (README note
# "Scan probes take one of two engines"; test_certified_step_cannot_report_growth
# in tests/test_fourier.py). The maps are built from the cell-block symbols,
# which differ from those of the assembled sparse operators by at most 5.3e-16
# relative (N 1/2/3/5, K 2..80, four pairs); over the certified map batches of
# the benchmark's 16 scans, maps built from the assembled symbols have squared
# amplification at most 1 + 7.6e-13, inside the slack. So such a probe is
# "stable" on both engines, and routing it leaves every verdict, probe
# sequence and tau unchanged.
CERTIFIED_GROWTH = ENERGY_GROWTH_RTOL / 5


def _checked_solve(g: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched solve of g x = rhs with one residual check over all blocks."""
    try:
        x = np.linalg.solve(g, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"Fourier stage block solve failed: {exc}") from exc
    axes = (-2, -1)
    residual = np.linalg.norm(g @ x - rhs, axis=axes)
    # the sparse stage solve's target SOLVE_RTOL ||b|| over an analogous floor:
    # each is 64 eps ||G|| ||x||, the roundoff of evaluating G x - b, for a
    # bound ||G|| on its system. Here that is ||G_k||_F per block; the sparse
    # solve bounds ||I - tau L||_inf by 1 + tau ||L||_inf.
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
    ``disc``, whose first cell's width and norm block serve every cell. A
    step map is certified when its squared M-norm amplification is at most
    1 + CERTIFIED_GROWTH.
    """

    def __init__(self, disc: Discretization, tableau: ImexTableau):
        cfg, elem = disc.cfg, disc.elem
        n_cells = cfg.n_cells
        dx = float(disc.mesh.widths[0])
        self.n_cells = n_cells
        self.tableau = tableau
        self.a_hat = -cfg.a * d_minus_symbol(elem, cfg.theta_adv, n_cells, dx)
        self.l_hat = cfg.c * d2_symbol(elem, cfg.theta_diff, n_cells, dx)
        self.m_cell = disc.m_diag[: elem.weights.size]
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

    def problem(self, dt: float, t_final: float) -> "FourierProblem | None":
        """Orthonormal maps of the steps integrate takes to t_final; None unless all are certified.

        The largest step size is decided alone, then the others in one batch.
        """
        sizes = sorted({t_next - t for t, t_next in step_times(dt, t_final)}, reverse=True)
        maps = {}
        for batch in (sizes[:1], sizes[1:]):
            if batch:
                t_maps = self.orthonormal_maps(batch)
                if np.max(amplification(t_maps)) ** 2 > 1.0 + CERTIFIED_GROWTH:
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
