"""Global upwind-pair derivative operators on a 1D mesh.

Assembles the dual first-derivative pair D-(theta) / D+(theta) coupling the
cells of a discontinuous nodal discretization through interface fluxes that
blend one-sided and central contributions,

    flux weight (1/2 + theta) from the left trace, (1/2 - theta) from the
    right trace, with theta in [-1/2, 1/2],

so theta = 0 is the central flux and theta = 1/2 the fully one-sided one.
The dual operator satisfies D+(theta) = D-(-theta) entrywise. Together with
the diagonal norm matrix M = diag(dx_i/2 * w) the pair obeys, with
Q^{+/-} = M D^{+/-} - B/2,

    (iii)  Q+ + (Q-)^T = 0,
    (iv)   C = (Q+ - Q-)/2 symmetric negative semi-definite (theta >= 0),

and the quadratic form of C equals -theta * sum of squared interface jumps.
Second-derivative operators are the products D2(theta) = D-(theta) D+(theta);
theta = 0, +1/2, -1/2 reproduce the standard central (BR1-type) and the two
alternating-flux (LDG-type) diffusion discretizations.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh1D, physical_nodes
from .ref_element import ReferenceElement

__all__ = [
    "GlobalOperatorSet",
    "SecondDerivativeOperator",
    "CertificationReport",
    "assemble_first_derivative",
    "cell_blocks",
    "second_derivative_from",
    "verify_axioms",
    "interface_jumps",
]

TOPOLOGIES = ("periodic", "bounded")


@dataclass(frozen=True)
class GlobalOperatorSet:
    """Dual upwind pair with its norm, dissipation and boundary operators.

    All matrices are CSR with block-sparse structure (K diagonal blocks plus
    neighbor couplings). ``m_diag`` holds the diagonal of the norm matrix M.
    ``B_glob``, ``t_alpha`` and ``t_beta`` are present only for the bounded
    topology; the periodic assembly has no boundary operator.
    """

    theta: float
    topology: str
    elem: ReferenceElement
    mesh: Mesh1D
    D_minus: sp.csr_matrix
    D_plus: sp.csr_matrix
    m_diag: np.ndarray
    Q_minus: sp.csr_matrix
    Q_plus: sp.csr_matrix
    C: sp.csr_matrix
    B_glob: sp.csr_matrix | None
    t_alpha: np.ndarray | None
    t_beta: np.ndarray | None

    @property
    def dim(self) -> int:
        return self.m_diag.size


@dataclass(frozen=True)
class SecondDerivativeOperator:
    """Second-derivative operator D2 = D-(theta) D+(theta)."""

    theta_diff: float
    D2: sp.csr_matrix
    provenance: str
    opset: GlobalOperatorSet


def cell_blocks(elem: ReferenceElement, theta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The interface-flux blocks (A11, A12, A21) of an interior cell of D-(theta).

    Unscaled by the cell width; block row i of D-(theta) is 2/dx_i times
      diagonal    A11 = D - (1/2-theta) Minv L1 L1^T + (1/2+theta) Minv Lm Lm^T
      right block A12 = (1/2-theta) Minv L1 Lm^T
      left block  A21 = -(1/2+theta) Minv Lm L1^T
    """
    lm, l1 = elem.boundary_left, elem.boundary_right
    inv_w = 1.0 / elem.weights
    a11 = (
        elem.diff
        - (0.5 - theta) * np.outer(inv_w * l1, l1)
        + (0.5 + theta) * np.outer(inv_w * lm, lm)
    )
    a12 = (0.5 - theta) * np.outer(inv_w * l1, lm)
    a21 = -(0.5 + theta) * np.outer(inv_w * lm, l1)
    return a11, a12, a21


def _first_derivative_matrix(
    elem: ReferenceElement, mesh: Mesh1D, theta: float, topology: str
) -> sp.csr_matrix:
    """Assemble D-(theta) from the ``cell_blocks`` of each cell.

    Periodic assembly wraps A21/A12 around and uses A11 on every cell;
    bounded end cells drop the flux term on the physical boundary side.
    """
    n = elem.n_nodes
    k_cells = mesh.n_cells
    a11, a12, a21 = cell_blocks(elem, theta)

    # one block row per cell on the diagonal, then the right and left
    # couplings; for K = 2 periodic a right and a left block share a slot
    cells = np.arange(k_cells)
    diag = np.repeat(a11[None], k_cells, axis=0)
    if topology == "periodic":
        right = left = cells
    else:
        lm, l1 = elem.boundary_left, elem.boundary_right
        inv_w = 1.0 / elem.weights
        diag[0] = elem.diff - (0.5 - theta) * np.outer(inv_w * l1, l1)
        diag[-1] = elem.diff + (0.5 + theta) * np.outer(inv_w * lm, lm)
        right, left = cells[:-1], cells[1:]
    block_rows = np.concatenate([cells, right, left])
    block_cols = np.concatenate([cells, (right + 1) % k_cells, (left - 1) % k_cells])
    blocks = np.concatenate(
        [diag, np.broadcast_to(a12, (right.size, n, n)), np.broadcast_to(a21, (left.size, n, n))]
    )
    scaled = (2.0 / mesh.widths)[block_rows, None, None] * blocks
    return _block_csr(block_rows, block_cols, scaled, k_cells)


def _block_csr(
    block_rows: np.ndarray, block_cols: np.ndarray, blocks: np.ndarray, k_cells: int
) -> sp.csr_matrix:
    """Canonical CSR of the K x K block matrix with block b at (block_rows[b], block_cols[b]).

    The blocks go into a BSR matrix in (block row, block col) order, so blocks
    that share a slot are summed in the order given; exact zeros are dropped,
    which is what the COO -> CSR conversion followed by ``eliminate_zeros``
    produces.
    """
    dim = k_cells * blocks.shape[1]
    order = np.lexsort((block_cols, block_rows))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(block_rows, minlength=k_cells))))
    mat = sp.bsr_matrix((blocks[order], block_cols[order], indptr), shape=(dim, dim))
    mat.sum_duplicates()
    mat = mat.tocsr()
    mat.eliminate_zeros()
    return mat


def assemble_first_derivative(
    elem: ReferenceElement, mesh: Mesh1D, theta: float, topology: str = "periodic"
) -> GlobalOperatorSet:
    """Assemble the dual pair D-/D+, norm matrix M and dissipation matrix C.

    Raises:
        ValueError: if theta is outside [-1/2, 1/2] or topology is unknown.
    """
    theta = float(theta)
    if not -0.5 <= theta <= 0.5:
        raise ValueError(f"theta must lie in [-1/2, 1/2], got {theta}")
    if topology not in TOPOLOGIES:
        raise ValueError(f"topology must be one of {TOPOLOGIES}, got {topology!r}")

    d_minus = _first_derivative_matrix(elem, mesh, theta, topology)
    d_plus = _first_derivative_matrix(elem, mesh, -theta, topology)

    n = elem.n_nodes
    k_cells = mesh.n_cells
    dim = k_cells * n
    m_diag = np.repeat(0.5 * mesh.widths, n) * np.tile(elem.weights, k_cells)
    # Q = M D is the same csr_matmat that a DIA M reaches after converting
    # itself to this CSR matrix
    m_csr = sp.csr_matrix((m_diag, np.arange(dim), np.arange(dim + 1)), shape=(dim, dim))
    q_minus = m_csr @ d_minus
    q_plus = m_csr @ d_plus

    if topology == "bounded":
        lm, l1 = elem.boundary_left, elem.boundary_right
        t_alpha = np.zeros(dim)
        t_alpha[:n] = lm
        t_beta = np.zeros(dim)
        t_beta[-n:] = l1
        b_glob = _block_csr(
            np.array([0, k_cells - 1]),
            np.array([0, k_cells - 1]),
            np.stack([-np.outer(lm, lm), np.outer(l1, l1)]),
            k_cells,
        )
        q_minus = q_minus - 0.5 * b_glob
        q_plus = q_plus - 0.5 * b_glob
    else:
        t_alpha = t_beta = None
        b_glob = None

    c = 0.5 * (q_plus - q_minus)
    c.eliminate_zeros()

    return GlobalOperatorSet(
        theta=theta,
        topology=topology,
        elem=elem,
        mesh=mesh,
        D_minus=d_minus,
        D_plus=d_plus,
        m_diag=m_diag,
        Q_minus=q_minus,
        Q_plus=q_plus,
        C=c,
        B_glob=b_glob,
        t_alpha=t_alpha,
        t_beta=t_beta,
    )


def interface_jumps(opset: GlobalOperatorSet, u: np.ndarray) -> np.ndarray:
    """Interface jumps u_right(-1) - u_left(1), one per coupled interface."""
    n = opset.elem.n_nodes
    k_cells = opset.mesh.n_cells
    cells = u.reshape(k_cells, n)
    left_traces = cells @ opset.elem.boundary_left
    right_traces = cells @ opset.elem.boundary_right
    jumps = left_traces[1:] - right_traces[:-1]
    if opset.topology == "periodic":
        jumps = np.append(jumps, left_traces[0] - right_traces[-1])
    return jumps


def second_derivative_from(opset: GlobalOperatorSet) -> SecondDerivativeOperator:
    """D2 = D- D+ from an already assembled operator set."""
    if opset.theta == 0.0:
        provenance = "BR1"
    elif opset.theta == 0.5:
        provenance = "LDG_a"
    elif opset.theta == -0.5:
        provenance = "LDG_b"
    else:
        provenance = "general"
    d2 = (opset.D_minus @ opset.D_plus).tocsr()
    return SecondDerivativeOperator(
        theta_diff=opset.theta, D2=d2, provenance=provenance, opset=opset
    )


def _max_abs(mat: sp.csr_matrix) -> float:
    return float(np.max(np.abs(mat.data))) if mat.data.size else 0.0


def _components(dim: int, rows: np.ndarray, cols: np.ndarray) -> tuple[int, np.ndarray]:
    """(count, labels) of the connected components of the undirected graph on ``dim`` nodes.

    Each node starts labelled by itself. A pass points the label of each edge
    end at the other end's label where that is smaller, in both directions,
    then follows the pointers until every node carries a label that points at
    itself (pointer jumping). Labels only ever point at smaller nodes of the
    same component, so once a pass moves no label, each node carries the
    smallest node of its component. Components are numbered in the order of
    their smallest node, as ``scipy.sparse.csgraph.connected_components``
    numbers them.
    """
    label = np.arange(dim)
    while True:
        ends_r, ends_c = label[rows], label[cols]
        hooked = label.copy()
        np.minimum.at(hooked, ends_r, ends_c)
        np.minimum.at(hooked, ends_c, ends_r)
        while not np.array_equal(jumped := hooked[hooked], hooked):
            hooked = jumped
        if np.array_equal(hooked, label):
            break
        label = hooked
    roots, labels = np.unique(label, return_inverse=True)
    return roots.size, labels


def _max_eig_sym(mat: sp.csr_matrix, mat_t: sp.csr_matrix | None = None) -> float:
    """Largest eigenvalue of the symmetric part of ``mat``, one component at a time.

    ``mat_t`` is the transpose of ``mat`` in CSR, if the caller has formed it.
    A symmetric matrix is block diagonal over the connected components of its
    sparsity graph, so its spectrum is the union of the components' spectra.
    The components of each size are stacked into one batched ``eigvalsh``. On
    LGL nodes C couples only the two trace nodes of each interface, so its
    components have at most two nodes.
    """
    sym = sp.coo_matrix(0.5 * (mat + (mat.T if mat_t is None else mat_t)))
    n_comp, labels = _components(sym.shape[0], sym.row, sym.col)
    sizes = np.bincount(labels, minlength=n_comp)
    # position of each node within its component, and of each component
    # within the stack of components of its size
    order = np.argsort(labels, kind="stable")
    local = np.empty_like(labels)
    local[order] = np.arange(labels.size) - (np.cumsum(sizes) - sizes)[labels[order]]
    slot = np.empty_like(sizes)
    top = -np.inf
    for size in np.unique(sizes):
        comps = np.flatnonzero(sizes == size)
        slot[comps] = np.arange(comps.size)
        keep = sizes[labels[sym.row]] == size
        rows, cols = sym.row[keep], sym.col[keep]
        stack = np.zeros((comps.size, size, size))
        stack[slot[labels[rows]], local[rows], local[cols]] = sym.data[keep]
        top = max(top, float(np.linalg.eigvalsh(stack)[:, -1].max()))
    return top


@dataclass(frozen=True)
class CertificationReport:
    """Residuals and verdicts for the operator-pair axioms.

    Accuracy and boundary-interpolation checks only apply to the bounded
    topology (monomials are not periodic); their fields are None otherwise.
    Failures are recorded, never raised.
    """

    degree: int
    n_cells: int
    theta: float
    topology: str
    tolerance: float
    accuracy_residual: float | None
    boundary_residual_alpha: float | None
    boundary_residual_beta: float | None
    norm_min_diag: float
    sbp_residual: float
    c_symmetry_residual: float
    c_max_eigenvalue: float
    axiom_accuracy_pass: bool | None
    axiom_norm_boundary_pass: bool | None
    axiom_sbp_pass: bool
    axiom_dissipation_pass: bool

    CSV_HEADER = "N,K,theta,topology,axiom,residual,tolerance,status"

    @property
    def all_pass(self) -> bool:
        verdicts = (getattr(self, f.name) for f in fields(self) if f.name.endswith("_pass"))
        return all(v for v in verdicts if v is not None)

    def to_text(self) -> str:
        """One ``field: value`` line per field; verdict fields drop their ``_pass``."""
        def fmt(v):
            if v is None:
                return "n/a"
            if isinstance(v, bool):
                return "pass" if v else "FAIL"
            if isinstance(v, float):
                return f"{v:.6e}"
            return str(v)

        return "\n".join(
            f"{f.name.removesuffix('_pass')}: {fmt(getattr(self, f.name))}" for f in fields(self)
        )

    def csv_rows(self) -> list[tuple[str, ...]]:
        """``CSV_HEADER`` rows as strings, one per axiom checked on this topology."""
        base = (str(self.degree), str(self.n_cells), f"{self.theta:g}", self.topology)
        entries = [
            ("accuracy", self.accuracy_residual, self.axiom_accuracy_pass),
            (
                "norm_boundary",
                None
                if self.boundary_residual_alpha is None
                else max(self.boundary_residual_alpha, self.boundary_residual_beta),
                self.axiom_norm_boundary_pass,
            ),
            ("sbp", self.sbp_residual, self.axiom_sbp_pass),
            ("dissipation", self.c_max_eigenvalue, self.axiom_dissipation_pass),
        ]
        return [
            base + (axiom, f"{residual:.6e}", f"{self.tolerance:g}", "pass" if verdict else "fail")
            for axiom, residual, verdict in entries
            if verdict is not None
        ]


def verify_axioms(opset: GlobalOperatorSet, tol: float = 1e-10) -> CertificationReport:
    """Check the operator-pair axioms and report residuals.

    Bounded topology: accuracy on monomials up to the element degree,
    boundary interpolation exactness, the SBP relation Q+ + (Q-)^T = 0 and
    negative semi-definiteness of C. Periodic topology: the latter two only.
    All residuals are recorded; nothing is raised on failure.
    """
    elem, mesh = opset.elem, opset.mesh
    degree = elem.degree

    accuracy = None
    bnd_alpha = bnd_beta = None
    acc_pass = nb_pass = None
    if opset.topology == "bounded":
        x = physical_nodes(mesh, elem)
        accuracy = 0.0
        for k in range(degree + 1):
            xk = x**k
            dxk = k * x ** (k - 1) if k > 0 else np.zeros_like(x)
            scale = max(1.0, float(np.max(np.abs(xk))))
            accuracy = max(
                accuracy,
                float(np.max(np.abs(opset.D_minus @ xk - dxk))) / scale,
                float(np.max(np.abs(opset.D_plus @ xk - dxk))) / scale,
            )
        bnd_alpha = bnd_beta = 0.0
        for l in range(degree + 1):
            xl = x**l
            scale = max(1.0, abs(mesh.x_a) ** l, abs(mesh.x_b) ** l)
            bnd_alpha = max(bnd_alpha, abs(opset.t_alpha @ xl - mesh.x_a**l) / scale)
            bnd_beta = max(bnd_beta, abs(opset.t_beta @ xl - mesh.x_b**l) / scale)
        acc_pass = accuracy <= tol
        nb_pass = bool(np.min(opset.m_diag) > 0.0 and max(bnd_alpha, bnd_beta) <= tol)

    # each transpose once, in CSR: the sparse sums would convert the CSC
    # views ``.T`` to exactly these matrices on every use
    c_t = opset.C.T.tocsr()
    sbp_residual = _max_abs(opset.Q_plus + opset.Q_minus.T.tocsr())
    c_sym = _max_abs(opset.C - c_t)
    c_eig = _max_eig_sym(opset.C, c_t)

    return CertificationReport(
        degree=degree,
        n_cells=mesh.n_cells,
        theta=opset.theta,
        topology=opset.topology,
        tolerance=tol,
        accuracy_residual=accuracy,
        boundary_residual_alpha=bnd_alpha,
        boundary_residual_beta=bnd_beta,
        norm_min_diag=float(np.min(opset.m_diag)),
        sbp_residual=sbp_residual,
        c_symmetry_residual=c_sym,
        c_max_eigenvalue=c_eig,
        axiom_accuracy_pass=acc_pass,
        axiom_norm_boundary_pass=nb_pass,
        axiom_sbp_pass=sbp_residual <= tol,
        axiom_dissipation_pass=bool(c_sym <= tol and c_eig <= tol),
    )
