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
An assembled set keeps only D+/- and M; Q+/-, C and the boundary operator
B = t_beta t_beta^T - t_alpha t_alpha^T, whose vectors are the element's
boundary interpolation vectors, are formed from them where they are used.
Second-derivative operators are the products D2(theta) = D-(theta) D+(theta);
theta = 0, +1/2, -1/2 reproduce the standard central (BR1-type) and the two
alternating-flux (LDG-type) diffusion discretizations.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .mesh import Mesh1D, physical_nodes
from .ref_element import ReferenceElement

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "GlobalOperatorSet",
    "SecondDerivativeOperator",
    "CertificationReport",
    "assemble_first_derivative",
    "cell_blocks",
    "d_minus_symbol",
    "d2_symbol",
    "second_derivative_from",
    "verify_axioms",
    "interface_jumps",
]

TOPOLOGIES = ("periodic", "bounded")


@dataclass(frozen=True)
class GlobalOperatorSet:
    """Dual upwind pair D-/D+ with the diagonal of its norm matrix M.

    The set keeps the slot layout of ``_first_derivative_matrix``:
    ``slot_cols`` holds the columns that every matrix shares, and
    ``d_minus_slots`` and ``d_plus_slots`` hold the values of D- and D+ in
    those slots. Everything else is a function of D+/-, M and the element:
    ``_q_slots`` forms Q+/- and C from them, with the boundary operator B of
    the bounded topology built from ``elem.boundary_left/right``.
    ``D_minus``, ``D_plus`` and ``C`` are built on first use, as canonical
    CSR (each row in column order, no duplicates, no stored zeros) with
    block-sparse structure (K diagonal blocks plus neighbor couplings).
    """

    theta: float
    topology: str
    elem: ReferenceElement
    mesh: Mesh1D
    m_diag: np.ndarray
    slot_cols: np.ndarray
    d_minus_slots: np.ndarray
    d_plus_slots: np.ndarray

    @property
    def dim(self) -> int:
        return self.m_diag.size

    @cached_property
    def D_minus(self) -> sp.csr_matrix:
        return _csr(self.d_minus_slots, self.slot_cols)

    @cached_property
    def D_plus(self) -> sp.csr_matrix:
        return _csr(self.d_plus_slots, self.slot_cols)

    @cached_property
    def C(self) -> sp.csr_matrix:
        return _csr(_q_slots(self)[2], self.slot_cols)


@dataclass(frozen=True)
class SecondDerivativeOperator:
    """Second-derivative operator D2 = D-(theta) D+(theta).

    theta = 0 gives the central (BR1-type) discretization and theta = +1/2,
    -1/2 the two alternating-flux (LDG-type) ones.
    """

    D2: sp.csr_matrix


def cell_blocks(
    elem: ReferenceElement, theta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The interface-flux blocks (A11, A12, A21, A11_first, A11_last) of D-(theta).

    Unscaled by the cell width; block row i of D-(theta) is 2/dx_i times
      diagonal    A11 = D - (1/2-theta) Minv L1 L1^T + (1/2+theta) Minv Lm Lm^T
      right block A12 = (1/2-theta) Minv L1 Lm^T
      left block  A21 = -(1/2+theta) Minv Lm L1^T
    for an interior cell. The diagonal blocks of the bounded end cells drop
    the flux term on their physical boundary side:
      first cell  A11_first = D - (1/2-theta) Minv L1 L1^T
      last cell   A11_last  = D + (1/2+theta) Minv Lm Lm^T
    """
    lm, l1 = elem.boundary_left, elem.boundary_right
    inv_w = 1.0 / elem.weights
    right_flux = (0.5 - theta) * np.outer(inv_w * l1, l1)
    left_flux = (0.5 + theta) * np.outer(inv_w * lm, lm)
    a11_first = elem.diff - right_flux
    a12 = (0.5 - theta) * np.outer(inv_w * l1, lm)
    a21 = -(0.5 + theta) * np.outer(inv_w * lm, l1)
    return a11_first + left_flux, a12, a21, a11_first, elem.diff + left_flux


def d_minus_symbol(elem: ReferenceElement, theta: float, n_cells: int, dx: float) -> np.ndarray:
    """The symbols of periodic D-(theta) on K = n_cells cells of width dx, shape (K//2+1, n, n).

    With omega = exp(2 pi i / K), symbol k is (2/dx) (A11 + A12 omega^k +
    A21 omega^-k) from the ``cell_blocks``: D-(theta) maps the rfft over
    cells of u, u_hat[k] = sum_i u[i] omega^(-k i), to symbol k times u_hat[k].
    """
    phase = np.exp(2j * np.pi * np.arange(n_cells // 2 + 1) / n_cells)[:, None, None]
    a11, a12, a21 = cell_blocks(elem, theta)[:3]
    return (2.0 / dx) * (a11 + a12 * phase + a21 * phase.conj())


def d2_symbol(elem: ReferenceElement, theta: float, n_cells: int, dx: float) -> np.ndarray:
    """The symbols of periodic D2(theta) = D-(theta) D+(theta), with D+(theta) = D-(-theta)."""
    return d_minus_symbol(elem, theta, n_cells, dx) @ d_minus_symbol(elem, -theta, n_cells, dx)


def _first_derivative_matrix(
    elem: ReferenceElement, mesh: Mesh1D, theta: float, topology: str
) -> tuple[np.ndarray, np.ndarray]:
    """D-(theta) from the ``cell_blocks`` of each cell, as (values, cols) of shape (dim, width).

    Row r of D- has the entries ``values[r]`` at the columns ``cols[r]``, which
    ascend over the slots that can hold a nonzero; exact zeros stand for
    entries D- does not store. Block row i holds 2/dx_i times its left,
    diagonal and right blocks side by side. Periodic assembly wraps A21/A12
    around, so the first and last block rows take their blocks in column
    order, and for K = 2 the right and the left block share a slot, summed in
    that order. Bounded end cells take the end-cell diagonal blocks and pad
    the missing neighbor with zeros. ``cols`` depends only on K, n and the
    topology.
    """
    n = elem.n_nodes
    k_cells = mesh.n_cells
    a11, a12, a21, a11_first, a11_last = cell_blocks(elem, theta)

    # blocks[i, r, s] is row r of the block in slot s of block row i
    blocks = np.empty((k_cells, n, 3, n))
    blocks[:] = np.stack([a21, a11, a12], axis=1)
    block_cols = np.arange(k_cells)[:, None] + np.arange(-1, 2)
    if topology == "periodic":
        blocks[0], blocks[-1] = blocks[0][:, [1, 2, 0]], blocks[-1][:, [2, 0, 1]]
        block_cols %= k_cells
        block_cols[0], block_cols[-1] = block_cols[0, [1, 2, 0]], block_cols[-1, [2, 0, 1]]
    else:
        blocks[0, :, 1], blocks[-1, :, 1] = a11_first, a11_last
        blocks[0, :, 0] = blocks[-1, :, 2] = 0.0
        block_cols[0, 0], block_cols[-1, 2] = 0, k_cells - 1
    blocks *= (2.0 / mesh.widths)[:, None, None, None]
    if topology == "periodic" and k_cells == 2:
        blocks = np.array([
            [blocks[0, :, 0], blocks[0, :, 1] + blocks[0, :, 2]],
            [blocks[1, :, 0] + blocks[1, :, 1], blocks[1, :, 2]],
        ]).transpose(0, 2, 1, 3)
        block_cols = block_cols[:, [0, 2]]
    dim = k_cells * n
    cols = np.broadcast_to(
        (n * block_cols[:, None, :, None] + np.arange(n)).astype(np.int32),
        (k_cells, n, block_cols.shape[1], n),
    )
    return blocks.reshape(dim, -1), cols.reshape(dim, -1)


def _csr(values: np.ndarray, cols: np.ndarray) -> sp.csr_matrix:
    """Square CSR matrix of the nonzero ``values`` at ``cols``, row by row in slot order.

    On the ``(values, cols)`` layout of ``_first_derivative_matrix`` the
    nonzero slots of a row ascend in column, so the matrix is canonical.
    """
    # imported here, not at module level, so that runs which only certify
    # operator sets (``gsbp verify``) never load scipy.sparse
    import scipy.sparse as sp

    dim = values.shape[0]
    keep = values != 0
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(keep, axis=1))))
    return sp.csr_matrix((values[keep], cols[keep], indptr.astype(np.int32)), shape=(dim, dim))


def _entries(values: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, data) of the nonzero ``values`` at ``cols``, as ``_csr`` stores them."""
    keep = values != 0
    return np.nonzero(keep)[0], cols[keep], values[keep]


def _q_slots(opset: GlobalOperatorSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Q+, Q-, C) on the slot layout of the set: Q+/- = M D+/- - B/2, C = (Q+ - Q-)/2.

    B = t_beta t_beta^T - t_alpha t_alpha^T is built from the element's
    boundary vectors; B/2 sits in the diagonal slot of the end block rows of
    a bounded set (K >= 2, so those rows differ). Each entry has the bits of
    scipy's ``diags(m) @ D - 0.5 * B`` and ``0.5 * (Q+ - Q-)``. A non-finite
    boundary vector gives the nan or inf entries scipy gives, without a
    warning.
    """
    m = opset.m_diag[:, None]
    q_plus, q_minus = m * opset.d_plus_slots, m * opset.d_minus_slots
    with np.errstate(invalid="ignore"):
        if opset.topology == "bounded":
            n = opset.elem.n_nodes
            lm, l1 = opset.elem.boundary_left, opset.elem.boundary_right
            for q in (q_plus, q_minus):
                q[:n, n : 2 * n] -= -0.5 * np.outer(lm, lm)
                q[-n:, n : 2 * n] -= 0.5 * np.outer(l1, l1)
        return q_plus, q_minus, 0.5 * (q_plus - q_minus)


def _apply(values: np.ndarray, cols: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The matrix of ``values`` at ``cols`` applied to the columns of ``x``, slot by slot.

    Each row accumulates its slots in order from +0.0, as scipy's
    ``csr_matvecs`` accumulates a CSR row. The running sum is never -0.0, so
    adding a zero slot leaves it unchanged, and for finite ``x`` the result
    has the bits of ``_csr(values, cols) @ x``. A non-finite slot gives the
    nan or inf that scipy's kernel gives, without a warning.
    """
    out = np.zeros((values.shape[0], x.shape[1]))
    with np.errstate(invalid="ignore", over="ignore"):
        for s in range(values.shape[1]):
            out += values[:, s, None] * x[cols[:, s]]
    return out


def assemble_first_derivative(
    elem: ReferenceElement, mesh: Mesh1D, theta: float, topology: str = "periodic"
) -> GlobalOperatorSet:
    """Assemble the dual pair D-/D+ and the diagonal of the norm matrix M.

    D+/- are kept on the slot layout of ``_first_derivative_matrix``. Q+/-
    and C are not formed here: ``_q_slots`` forms them from the set when the
    verifier or ``GlobalOperatorSet.C`` needs them.

    Raises:
        ValueError: if theta is outside [-1/2, 1/2] or topology is unknown.
    """
    theta = float(theta)
    if not -0.5 <= theta <= 0.5:
        raise ValueError(f"theta must lie in [-1/2, 1/2], got {theta}")
    if topology not in TOPOLOGIES:
        raise ValueError(f"topology must be one of {TOPOLOGIES}, got {topology!r}")

    d_vals, cols = _first_derivative_matrix(elem, mesh, theta, topology)
    return GlobalOperatorSet(
        theta=theta,
        topology=topology,
        elem=elem,
        mesh=mesh,
        m_diag=np.repeat(0.5 * mesh.widths, elem.n_nodes) * np.tile(elem.weights, mesh.n_cells),
        slot_cols=cols,
        d_minus_slots=d_vals,
        d_plus_slots=_first_derivative_matrix(elem, mesh, -theta, topology)[0],
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
    """D2 = D- D+ from an already assembled operator set, as canonical CSR."""
    d2 = opset.D_minus @ opset.D_plus
    d2.sum_duplicates()  # scipy's product leaves rows unsorted; L = c D2 sums in column order
    return SecondDerivativeOperator(d2)


def _max_abs(values: np.ndarray) -> float:
    return float(np.max(np.abs(values))) if values.size else 0.0


def _entry_sums(
    a: tuple[np.ndarray, np.ndarray, np.ndarray],
    b: tuple[np.ndarray, np.ndarray, np.ndarray],
    dim: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(keys, a_sums, bt_sums) over the positions that a or the transpose of b stores.

    ``a`` and ``b`` are the (rows, cols, data) entries of two dim x dim
    matrices, in storage order. A position (i, j) has the key i * dim + j;
    the keys ascend. At each position, ``a_sums`` holds a's entries there
    summed in storage order, starting from 0.0, and 0.0 where a stores none;
    ``bt_sums`` does the same for b^T. These are the operands scipy's binop
    combines, so ``a_sums + bt_sums`` has the bits of the entries of
    ``a + b.T``. Entries in any order and duplicate entries are taken as
    stored.
    """
    a_rows, a_cols, a_data = a
    b_rows, b_cols, b_data = b
    keys = np.concatenate([a_rows * dim + a_cols, b_cols.astype(np.int64) * dim + b_rows])
    # a stable sort keeps each side's duplicates in storage order, a's first
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    n_keys = int(np.count_nonzero(first))
    # bin 2k sums a's entries at the k-th position, bin 2k + 1 those of b^T
    bins = 2 * np.cumsum(first) - 2 + (order >= a_data.size)
    sums = np.bincount(bins, np.concatenate([a_data, b_data])[order], 2 * n_keys)
    sums = sums.reshape(n_keys, 2)
    return keys[first], sums[:, 0], sums[:, 1]


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


def _max_eig_sym(dim: int, sums: tuple[np.ndarray, np.ndarray, np.ndarray]) -> float:
    """Largest eigenvalue of the symmetric part of a dim x dim matrix, one component at a time.

    ``sums`` is ``_entry_sums(mat, mat, dim)``, which the caller has formed. A
    symmetric matrix is block diagonal over the connected components of its
    sparsity graph, so its spectrum is the union of the components' spectra.
    The components of each size are stacked into one batched ``eigvalsh``. On
    LGL nodes C couples only the two trace nodes of each interface, so its
    components have at most two nodes. A symmetric part with a non-finite
    entry has no spectrum to certify: the result is nan.
    """
    keys, entries, entries_t = sums
    # the pattern and entries of 0.5 * (mat + mat.T) as scipy stores them
    total = entries + entries_t
    if not np.isfinite(total).all():
        return float("nan")
    stored = total != 0
    sym_rows, sym_cols = np.divmod(keys[stored], dim)
    sym_data = 0.5 * total[stored]
    n_comp, labels = _components(dim, sym_rows, sym_cols)
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
        keep = sizes[labels[sym_rows]] == size
        rows, cols = sym_rows[keep], sym_cols[keep]
        stack = np.zeros((comps.size, size, size))
        stack[slot[labels[rows]], local[rows], local[cols]] = sym_data[keep]
        top = max(top, float(np.linalg.eigvalsh(stack)[:, -1].max()))
    return top


def _sbp_certificate(
    q_plus: tuple[np.ndarray, np.ndarray, np.ndarray],
    q_minus: tuple[np.ndarray, np.ndarray, np.ndarray],
    c: tuple[np.ndarray, np.ndarray, np.ndarray],
    dim: int,
) -> tuple[float, float, float]:
    """(SBP, C symmetry, largest C eigenvalue) residuals from the entries of Q+, Q- and C.

    Each matrix is given as its (rows, cols, data) entries, as ``_entry_sums`` reads them.
    """
    _, q_plus_sums, q_minus_t = _entry_sums(q_plus, q_minus, dim)
    sbp_residual = _max_abs(q_plus_sums + q_minus_t)
    c_sums = _entry_sums(c, c, dim)
    # inf - inf on a non-finite diagonal entry is nan, which fails the axiom
    with np.errstate(invalid="ignore"):
        c_sym = _max_abs(c_sums[1] - c_sums[2])
    return sbp_residual, c_sym, _max_eig_sym(dim, c_sums)


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


def verify_axioms(opset: GlobalOperatorSet, tol: float = 1e-10) -> CertificationReport:
    """Check the operator-pair axioms and report residuals.

    Bounded topology: accuracy on monomials up to the element degree,
    boundary interpolation exactness, the SBP relation Q+ + (Q-)^T = 0 and
    negative semi-definiteness of C. Periodic topology: the latter two only.
    The checks read the slot layout of the set with numpy alone. Q+/- and C
    come from ``_q_slots``, which also forms the C that ``GlobalOperatorSet.C``
    applies, and the boundary check reads the element's boundary vectors that
    B is built from. All residuals are recorded; nothing is raised on failure.
    """
    elem, mesh = opset.elem, opset.mesh
    degree, n = elem.degree, elem.n_nodes
    cols = opset.slot_cols

    accuracy = None
    bnd_alpha = bnd_beta = None
    acc_pass = nb_pass = None
    if opset.topology == "bounded":
        x = physical_nodes(mesh, elem)
        # row k holds x**k and its derivative k x**(k-1); one product per
        # operator gives each row the bits of its own mat-vec. Residuals are
        # reduced with np.max, which keeps a nan.
        powers = np.array([x**k for k in range(degree + 1)])
        derivs = np.arange(degree + 1)[:, None] * np.vstack([np.zeros_like(x), powers[:-1]])
        scale = np.maximum(1.0, np.max(np.abs(powers), axis=1))
        accuracy = [
            np.max(np.abs(_apply(d, cols, powers.T) - derivs.T), axis=0) / scale
            for d in (opset.d_minus_slots, opset.d_plus_slots)
        ]
        bnd_alpha, bnd_beta = [], []
        # a non-finite boundary vector times a zero node value is nan, which fails the axiom
        with np.errstate(invalid="ignore"):
            for k, xk in enumerate(powers):
                scale = max(1.0, abs(mesh.x_a) ** k, abs(mesh.x_b) ** k)
                bnd_alpha.append(abs(elem.boundary_left @ xk[:n] - mesh.x_a**k) / scale)
                bnd_beta.append(abs(elem.boundary_right @ xk[-n:] - mesh.x_b**k) / scale)
        accuracy, bnd_alpha, bnd_beta = (float(np.max(r)) for r in (accuracy, bnd_alpha, bnd_beta))
        acc_pass = accuracy <= tol
        nb_pass = bool(np.min(opset.m_diag) > 0.0 and bnd_alpha <= tol and bnd_beta <= tol)

    sbp_residual, c_sym, c_eig = _sbp_certificate(
        *(_entries(slots, cols) for slots in _q_slots(opset)), opset.dim
    )

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
