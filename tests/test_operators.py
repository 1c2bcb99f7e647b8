import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import csgraph

from upwind_gsbp import cli
from upwind_gsbp.mesh import Mesh1D, physical_nodes, uniform_mesh
from upwind_gsbp.operators import (
    _components,
    _csr,
    _entry_sums,
    _max_eig_sym,
    _q_slots,
    _sbp_certificate,
    assemble_first_derivative,
    interface_jumps,
    second_derivative_from,
    verify_axioms,
)
from upwind_gsbp.ref_element import build_lgl


def make_opset(degree, n_cells, theta, topology, interval=(-np.pi, np.pi)):
    elem = build_lgl(degree)
    mesh = uniform_mesh(interval[0], interval[1], n_cells)
    return assemble_first_derivative(elem, mesh, theta, topology)


def q_pair(ops):
    """(Q-, Q+) as CSR, formed from the set's D-/D+ slots as ``verify_axioms`` forms them."""
    return tuple(
        _csr(_q_slots(ops.elem, ops.topology, ops.m_diag, d), ops.slot_cols)
        for d in (ops.d_minus_slots, ops.d_plus_slots)
    )


def with_slots(ops, **slots):
    """``ops`` with D-/D+ slots replaced and C's slots formed from them, as assembly forms them."""
    d_minus = slots.get("d_minus_slots", ops.d_minus_slots)
    d_plus = slots.get("d_plus_slots", ops.d_plus_slots)
    q_minus, q_plus = (_q_slots(ops.elem, ops.topology, ops.m_diag, d) for d in (d_minus, d_plus))
    return dataclasses.replace(
        ops, d_minus_slots=d_minus, d_plus_slots=d_plus, c_slots=0.5 * (q_plus - q_minus)
    )


def entries(mat):
    """(rows, cols, data) of a CSR matrix, in storage order."""
    return np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr)), mat.indices, mat.data


def slot_of_nonzero(slots, k):
    """The (row, slot) of the k-th nonzero slot of ``slots`` in storage order."""
    return np.unravel_index(np.flatnonzero(slots)[k], slots.shape)


# ---------------------------------------------------------------- assembly


def test_theta_out_of_range():
    with pytest.raises(ValueError):
        make_opset(1, 4, 0.7, "periodic")
    with pytest.raises(ValueError):
        make_opset(1, 4, -0.51, "bounded")


def test_unknown_topology():
    elem = build_lgl(1)
    mesh = uniform_mesh(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        assemble_first_derivative(elem, mesh, 0.0, "moebius")


def test_central_pair_collapses():
    ops = make_opset(2, 6, 0.0, "periodic")
    assert (ops.D_minus - ops.D_plus).nnz == 0
    assert ops.C.nnz == 0


@pytest.mark.parametrize("theta", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("topology", ["periodic", "bounded"])
def test_duality_in_theta(theta, topology):
    ops = make_opset(2, 5, theta, topology)
    mirrored = make_opset(2, 5, -theta, topology)
    assert abs(ops.D_plus - mirrored.D_minus).max() == 0.0


def test_wraparound_coupling_coefficient():
    # N=1, K=2 on (0,2), theta=1/2: first node of cell 1 to last node of
    # cell 2 carries -(1/2+theta) * (2/dx) / w_1 = -2
    ops = make_opset(1, 2, 0.5, "periodic", interval=(0.0, 2.0))
    assert ops.D_minus[0, -1] == pytest.approx(-2.0, abs=1e-14)


def reference_first_derivative(elem, mesh, theta, topology):
    """D-(theta) assembled block by block, one cell at a time."""
    n, k_cells = elem.n_nodes, mesh.n_cells
    d_hat, inv_w = elem.diff, 1.0 / elem.weights
    lm, l1 = elem.boundary_left, elem.boundary_right
    a11 = (
        d_hat
        - (0.5 - theta) * np.outer(inv_w * l1, l1)
        + (0.5 + theta) * np.outer(inv_w * lm, lm)
    )
    a12 = (0.5 - theta) * np.outer(inv_w * l1, lm)
    a21 = -(0.5 + theta) * np.outer(inv_w * lm, l1)
    a_lb = d_hat - (0.5 - theta) * np.outer(inv_w * l1, l1)
    a_rb = d_hat + (0.5 + theta) * np.outer(inv_w * lm, lm)

    blocks = {}

    def add(i, j, block):
        scaled = (2.0 / mesh.widths[i]) * block
        blocks[(i, j)] = blocks[(i, j)] + scaled if (i, j) in blocks else scaled

    for i in range(k_cells):
        if topology == "periodic":
            add(i, i, a11)
            add(i, (i + 1) % k_cells, a12)
            add(i, (i - 1) % k_cells, a21)
        elif i == 0:
            add(i, i, a_lb)
            add(i, i + 1, a12)
        elif i == k_cells - 1:
            add(i, i, a_rb)
            add(i, i - 1, a21)
        else:
            add(i, i, a11)
            add(i, i + 1, a12)
            add(i, i - 1, a21)

    local_rows, local_cols = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
    rows, cols, vals = [], [], []
    for (i, j), block in sorted(blocks.items()):
        rows.append(local_rows + i * n)
        cols.append(local_cols + j * n)
        vals.append(block.ravel())
    dim = k_cells * n
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim)
    ).tocsr()
    mat.eliminate_zeros()
    return mat


def reference_boundary_operator(elem, dim):
    """B = -Lm Lm^T in the first and Lb Lb^T in the last diagonal block, built in lil."""
    n = elem.n_nodes
    b = sp.lil_matrix((dim, dim))
    b[:n, :n] = -np.outer(elem.boundary_left, elem.boundary_left)
    b[-n:, -n:] = np.outer(elem.boundary_right, elem.boundary_right)
    return b.tocsr()


def same_bits(a, b):
    return all(
        getattr(a, f).tobytes() == getattr(b, f).tobytes() for f in ("data", "indices", "indptr")
    )


@pytest.mark.parametrize("n_cells", [2, 3, 4, 7, 320])
@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("theta", [-0.5, -0.25, 0.0, 0.25, 0.5])
@pytest.mark.parametrize("topology", ["periodic", "bounded"])
def test_assembly_matches_per_cell_reference(n_cells, uniform, theta, topology):
    if uniform:
        mesh = uniform_mesh(-np.pi, np.pi, n_cells)
    else:
        widths = np.random.default_rng(n_cells).uniform(0.5, 1.5, n_cells)
        mesh = Mesh1D(0.0, float(np.sum(widths)), widths)
    for degree in (1, 3):
        elem = build_lgl(degree)
        ops = assemble_first_derivative(elem, mesh, theta, topology)
        d_minus = reference_first_derivative(elem, mesh, theta, topology)
        d_plus = reference_first_derivative(elem, mesh, -theta, topology)
        m = sp.diags(ops.m_diag)
        q_minus, q_plus = m @ d_minus, m @ d_plus
        if topology == "bounded":
            b = reference_boundary_operator(elem, ops.dim)
            q_minus, q_plus = q_minus - 0.5 * b, q_plus - 0.5 * b
        q_minus, q_plus = q_minus.tocsr(), q_plus.tocsr()
        c = (0.5 * (q_plus - q_minus)).tocsr()
        c.eliminate_zeros()
        # scipy stores the rows of a product or a sum in its own orders; the
        # set stores each row in column order, with the same entry bits
        for got, want in [
            (ops.D_minus, d_minus),
            (ops.D_plus, d_plus),
            *zip(q_pair(ops), (q_minus, q_plus)),
            (ops.C, c),
        ]:
            assert same_bits(got, want.sorted_indices())


@pytest.mark.parametrize("theta", [-0.5, 0.0, 0.25, 0.5])
def test_assembly_matches_scipy_when_b_adds_entries(theta):
    # boundary vectors that are not Lagrange traces: B = -Lm Lm^T then has an
    # entry where D stores none (diff[1, 1] = 0 at N = 2), which scipy's
    # Q = M D - B/2 stores ahead of those of M D and the set in column order
    elem = dataclasses.replace(build_lgl(2), boundary_left=np.array([0.5, 0.5, 0.0]))
    mesh = uniform_mesh(-np.pi, np.pi, 5)
    ops = assemble_first_derivative(elem, mesh, theta, "bounded")
    m, b = sp.diags(ops.m_diag), reference_boundary_operator(elem, ops.dim)
    q_minus = m @ reference_first_derivative(elem, mesh, theta, "bounded") - 0.5 * b
    q_plus = m @ reference_first_derivative(elem, mesh, -theta, "bounded") - 0.5 * b
    set_q_minus, set_q_plus = q_pair(ops)
    assert ops.D_minus[1, 1] == 0 and set_q_minus[1, 1] != 0
    assert same_bits(set_q_minus, q_minus.tocsr().sorted_indices())
    assert same_bits(set_q_plus, q_plus.tocsr().sorted_indices())


@pytest.mark.parametrize("theta", [-0.5, -0.25, 0.0, 0.25, 0.5])
@pytest.mark.parametrize("topology", ["periodic", "bounded"])
def test_operator_set_is_canonical_csr(theta, topology):
    # each entry is stored once, in column order, and no stored entry is zero
    for degree in range(1, 6):
        for n_cells in range(2, 8):
            ops = make_opset(degree, n_cells, theta, topology)
            q_minus, q_plus = q_pair(ops)
            mats = dict(D_minus=ops.D_minus, D_plus=ops.D_plus, Q_minus=q_minus, Q_plus=q_plus, C=ops.C)
            for name, mat in mats.items():
                assert mat.has_canonical_format, (degree, n_cells, name)
                assert np.all(mat.data != 0), (degree, n_cells, name)


@pytest.mark.parametrize("degree", [1, 2, 3, 5])
@pytest.mark.parametrize("theta", [-0.5, 0.0, 0.25])
def test_accuracy_residual_keeps_the_bits_of_each_monomial_product(degree, theta):
    # verify_axioms applies each operator to all monomials x^0..x^N at once;
    # on a non-uniform mesh the residual is still that of the products D @ x^k
    widths = np.random.default_rng(degree).uniform(0.5, 1.5, 7)
    mesh = Mesh1D(0.0, float(np.sum(widths)), widths)
    ops = assemble_first_derivative(build_lgl(degree), mesh, theta, "bounded")
    x = physical_nodes(mesh, ops.elem)
    want = 0.0
    for k in range(degree + 1):
        xk = x**k
        dxk = k * x ** (k - 1) if k > 0 else np.zeros_like(x)
        scale = max(1.0, float(np.max(np.abs(xk))))
        for d in (ops.D_minus, ops.D_plus):
            want = max(want, float(np.max(np.abs(d @ xk - dxk))) / scale)
    report = verify_axioms(ops)
    assert report.accuracy_residual == want
    assert report.axiom_accuracy_pass


@pytest.mark.parametrize("degree,n_cells,theta", [(1, 4, 0.5), (2, 6, 0.25), (3, 5, 0.0)])
def test_bounded_monomial_exactness(degree, n_cells, theta):
    ops = make_opset(degree, n_cells, theta, "bounded")
    x = physical_nodes(ops.mesh, ops.elem)
    for k in range(degree + 1):
        want = k * x ** (k - 1) if k > 0 else np.zeros_like(x)
        scale = max(1.0, np.max(np.abs(x**k)))
        assert np.max(np.abs(ops.D_minus @ x**k - want)) <= 1e-12 * scale
        assert np.max(np.abs(ops.D_plus @ x**k - want)) <= 1e-12 * scale


# ------------------------------------------------------------ norm and SBP


@pytest.mark.parametrize("topology", ["periodic", "bounded"])
def test_norm_matrix_diagonal_spd(topology):
    ops = make_opset(2, 4, 0.25, topology)
    assert np.all(ops.m_diag > 0)
    # diag(dx/2 * w) tiled over cells
    want = np.tile(0.5 * ops.mesh.widths[0] * ops.elem.weights, 4)
    np.testing.assert_allclose(ops.m_diag, want, rtol=1e-15)


@pytest.mark.parametrize("theta", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("topology", ["periodic", "bounded"])
def test_sbp_relation(theta, topology):
    q_minus, q_plus = q_pair(make_opset(3, 5, theta, topology))
    assert abs(q_plus + q_minus.T).max() <= 1e-12


@pytest.mark.parametrize("theta", [0.0, 0.25, 0.5])
def test_periodic_norm_duality(theta):
    ops = make_opset(2, 6, theta, "periodic")
    m = sp.diags(ops.m_diag)
    assert abs(m @ ops.D_plus + ops.D_minus.T @ m).max() <= 1e-12


def test_boundary_operator_structure():
    # Q = M D - B/2, so M D - Q is B/2: -Lm Lm^T / 2 in the first diagonal
    # block, Lb Lb^T / 2 in the last, zero elsewhere
    ops = make_opset(2, 4, 0.5, "bounded")
    n = ops.elem.n_nodes
    lm, l1 = ops.elem.boundary_left, ops.elem.boundary_right
    m = sp.diags(ops.m_diag)
    for d, q in zip((ops.D_minus, ops.D_plus), q_pair(ops)):
        half_b = (m @ d - q).toarray()
        np.testing.assert_allclose(half_b[:n, :n], -0.5 * np.outer(lm, lm), rtol=0, atol=1e-14)
        np.testing.assert_allclose(half_b[-n:, -n:], 0.5 * np.outer(l1, l1), rtol=0, atol=1e-14)
        half_b[:n, :n] = half_b[-n:, -n:] = 0.0
        assert np.abs(half_b).max() <= 1e-14


@pytest.mark.parametrize("degree", [1, 2, 3, 5])
@pytest.mark.parametrize("n_cells", [2, 3, 20])
def test_boundary_operator_matches_lil_reference(degree, n_cells):
    # the B that Q+/- fold in is the lil-built one, bit for bit
    ops = make_opset(degree, n_cells, 0.25, "bounded")
    m, b = sp.diags(ops.m_diag), reference_boundary_operator(ops.elem, ops.dim)
    q_minus, q_plus = q_pair(ops)
    assert same_bits(q_minus, (m @ ops.D_minus - 0.5 * b).tocsr())
    assert same_bits(q_plus, (m @ ops.D_plus - 0.5 * b).tocsr())


# ---------------------------------------------------------------- C matrix


@pytest.mark.parametrize("theta", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("topology", ["periodic", "bounded"])
def test_c_symmetric_negative_semidefinite(theta, topology):
    ops = make_opset(2, 5, theta, topology)
    c = ops.C
    assert abs(c - c.T).max() <= 1e-13
    eigs = np.linalg.eigvalsh(c.toarray())
    assert eigs[-1] <= 1e-12


def test_negative_theta_flips_sign_and_is_flagged():
    ops = make_opset(2, 4, -0.25, "bounded")
    report = verify_axioms(ops)
    assert not report.axiom_dissipation_pass
    assert report.c_max_eigenvalue > 1e-3
    # the other axioms are untouched by the sign of theta
    assert report.axiom_accuracy_pass and report.axiom_sbp_pass


def test_misassembled_operators_are_flagged():
    # the verifier reads the slots as given, so one wrong entry of D+, which
    # moves its entry of Q+ = M D+ by 1e-3, breaks the SBP relation and the
    # symmetry of C
    ops = make_opset(2, 4, 0.5, "periodic")
    d_plus = ops.d_plus_slots.copy()
    slot = np.flatnonzero(ops.slot_cols[0] == 2)[0]
    d_plus[0, slot] += 1e-3 / ops.m_diag[0]  # an off-diagonal entry of row 0
    report = verify_axioms(with_slots(ops, d_plus_slots=d_plus))
    assert report.sbp_residual == pytest.approx(1e-3, rel=1e-9)
    assert report.c_symmetry_residual == pytest.approx(5e-4, rel=1e-9)
    assert not report.axiom_sbp_pass
    assert not report.axiom_dissipation_pass


def max_eig_sym(mat):
    """``_max_eig_sym`` with the entry sums ``verify_axioms`` forms for it."""
    return _max_eig_sym(mat.shape[0], _entry_sums(entries(mat), entries(mat), mat.shape[0]))


def dense_max_eig_sym(mat):
    return np.linalg.eigvalsh((0.5 * (mat + mat.T)).toarray())[-1]


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("n_cells", [4, 20, 80, 320])
@pytest.mark.parametrize("topology", ["periodic", "bounded"])
def test_max_eig_matches_dense_on_certified_sets(degree, n_cells, topology):
    thetas = [0.0, 0.25, 0.5] + ([-0.25, -0.5] if n_cells == 320 else [])
    for theta in thetas:
        c = make_opset(degree, n_cells, theta, topology).C
        want = dense_max_eig_sym(c)
        assert max_eig_sym(c) == want
        if theta < 0:
            assert want > 0


def test_max_eig_of_zero_matrix():
    assert max_eig_sym(sp.csr_matrix((6, 6))) == 0.0


def test_max_eig_mixed_component_sizes():
    rng = np.random.default_rng(5)
    sizes = [1, 1, 2, 2, 2, 3, 4, 5, 6, 6]
    blocks = sp.block_diag([rng.standard_normal((s, s)) for s in sizes]).toarray()
    perm = rng.permutation(blocks.shape[0])
    mat = sp.csr_matrix(blocks[perm][:, perm])
    # the components are solved in a different order than the dense matrix
    assert max_eig_sym(mat) == pytest.approx(dense_max_eig_sym(mat), rel=1e-13)


def test_max_eig_single_component_above_old_dense_limit():
    rng = np.random.default_rng(6)
    n = 600
    mat = sp.diags(
        [rng.standard_normal(n - 1), rng.standard_normal(n), rng.standard_normal(n - 1)],
        [-1, 0, 1],
    ).tocsr()
    assert max_eig_sym(mat) == dense_max_eig_sym(mat)


def assert_components_match_csgraph(dim, rows, cols):
    graph = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(dim, dim))
    want_count, want_labels = csgraph.connected_components(graph, directed=False)
    count, labels = _components(dim, rows, cols)
    assert count == want_count
    assert np.array_equal(labels, want_labels)


def test_components_match_csgraph_on_random_symmetric_patterns():
    rng = np.random.default_rng(11)
    for _ in range(200):
        dim = int(rng.integers(1, 80))
        density = rng.choice([0.0, 0.01, 0.03, 0.1, 0.3])
        pattern = sp.random(dim, dim, density=density, random_state=rng, format="csr")
        sym = (pattern + pattern.T).tocoo()
        assert_components_match_csgraph(dim, sym.row, sym.col)


@pytest.mark.parametrize("shuffled", [False, True])
def test_components_of_a_long_path(shuffled):
    # a path is the deepest graph: the smallest label must travel its length
    dim = 1280
    nodes = np.random.default_rng(12).permutation(dim) if shuffled else np.arange(dim)
    rows, cols = nodes[:-1], nodes[1:]
    assert_components_match_csgraph(dim, np.concatenate([rows, cols]), np.concatenate([cols, rows]))
    # each edge listed in one direction only
    count, labels = _components(dim, rows, cols)
    assert count == 1 and not labels.any()


def test_components_of_isolated_nodes():
    none = np.array([], dtype=int)
    for dim in (1, 50):
        assert_components_match_csgraph(dim, none, none)
    count, labels = _components(50, none, none)
    assert count == 50 and np.array_equal(labels, np.arange(50))
    assert_components_match_csgraph(1, np.array([0]), np.array([0]))


@pytest.mark.parametrize("seed", range(8))
def test_max_eig_of_shuffled_block_diagonal_symmetric(seed):
    rng = np.random.default_rng(seed)
    blocks = []
    for size in rng.integers(1, 7, size=int(rng.integers(1, 40))):
        block = rng.standard_normal((size, size))
        blocks.append(block + block.T)
    dense = sp.block_diag(blocks).toarray()
    perm = rng.permutation(dense.shape[0])
    mat = sp.csr_matrix(dense[perm][:, perm])
    eigs = np.linalg.eigvalsh(mat.toarray())
    assert abs(max_eig_sym(mat) - eigs.max()) <= 1e-13 * np.abs(eigs).max()


def test_fully_one_sided_flux_certifies_zero_at_large_dim():
    # dim 640: C's largest eigenvalue is 0 (constants), not -2 theta
    report = verify_axioms(make_opset(1, 320, 0.5, "periodic"))
    assert report.c_max_eigenvalue == 0.0
    assert report.axiom_dissipation_pass


def scipy_max_eig_sym(mat):
    """Largest eigenvalue of 0.5 (mat + mat^T), one csgraph component at a time."""
    sym = (0.5 * (mat + mat.T.tocsr())).tocsr()
    _, labels = csgraph.connected_components(sym, directed=False)
    return max(
        float(np.linalg.eigvalsh(sym[nodes][:, nodes].toarray())[-1])
        for nodes in (np.flatnonzero(labels == label) for label in np.unique(labels))
    )


def scipy_certificate(q_plus, q_minus, c):
    """(sbp, C symmetry, C eigenvalue) residuals from scipy's sparse algebra."""
    c_t = c.T.tocsr()
    sums = [q_plus + q_minus.T.tocsr(), c - c_t]
    sbp, c_sym = (float(np.max(np.abs(m.data), initial=0.0)) for m in sums)
    return sbp, c_sym, scipy_max_eig_sym(c)


def scipy_set_certificate(opset):
    """``scipy_certificate`` of the set's Q+, Q- and C."""
    q_minus, q_plus = q_pair(opset)
    return scipy_certificate(q_plus, q_minus, opset.C)


def triples_certificate(q_plus, q_minus, c):
    """The verifier's residuals from the (rows, cols, data) entries of CSR matrices."""
    return _sbp_certificate(entries(q_plus), entries(q_minus), entries(c), c.shape[0])


def certificate(report):
    return report.sbp_residual, report.c_symmetry_residual, report.c_max_eigenvalue


def shuffled_rows(mat, seed):
    """``mat`` with each row's entries stored in a random order."""
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    order = np.lexsort((rng.random(mat.nnz), rows))
    return sp.csr_matrix((mat.data[order], mat.indices[order], mat.indptr), shape=mat.shape)


def split_entries(mat, seed):
    """``mat`` with about half its entries stored as two duplicates that sum to them."""
    rng = np.random.default_rng(seed)
    coo = mat.tocoo()
    split = rng.random(coo.nnz) < 0.5
    part = coo.data[split] * rng.uniform(0.2, 0.8, split.sum())
    rows = np.concatenate([coo.row, coo.row[split]])
    cols = np.concatenate([coo.col, coo.col[split]])
    data = np.concatenate([coo.data, part])
    data[np.flatnonzero(split)] -= part
    # CSR with duplicates, each row in a random order
    order = np.lexsort((rng.random(rows.size), rows))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=mat.shape[0]))))
    return sp.csr_matrix((data[order], cols[order], indptr), shape=mat.shape)


@pytest.mark.parametrize("topology", ["periodic", "bounded"])
@pytest.mark.parametrize("theta", [0.0, 0.25, 0.5])
def test_verifier_reads_unsorted_indices(theta, topology):
    ops = make_opset(2, 6, theta, topology)
    set_q_minus, set_q_plus = q_pair(ops)
    q_plus = shuffled_rows(set_q_plus, 1)
    assert not q_plus.has_sorted_indices
    c = shuffled_rows(ops.C, 2)
    got = triples_certificate(q_plus, set_q_minus, c)
    assert got == scipy_certificate(q_plus, set_q_minus, c)
    # the order the entries are stored in moves no bit
    assert got == certificate(verify_axioms(ops))


@pytest.mark.parametrize("topology", ["periodic", "bounded"])
@pytest.mark.parametrize("theta", [0.0, 0.25, 0.5])
def test_verifier_sums_duplicate_entries(theta, topology):
    ops = make_opset(2, 6, theta, topology)
    set_q_minus, set_q_plus = q_pair(ops)
    q_plus, q_minus = split_entries(set_q_plus, 3), split_entries(set_q_minus, 4)
    c = split_entries(0.5 * (q_plus - q_minus), 5)
    assert q_plus.nnz > set_q_plus.nnz and not q_plus.has_canonical_format
    got = triples_certificate(q_plus, q_minus, c)
    assert got == scipy_certificate(q_plus, q_minus, c)
    # the split moves the sums by roundoff only
    assert max(got) <= 1e-10


@pytest.mark.parametrize("theta", [0.25, 0.5])
def test_verifier_flags_corrupted_bounded_set(theta):
    ops = make_opset(3, 5, theta, "bounded")
    n = ops.elem.n_nodes
    d_plus = ops.d_plus_slots.copy()
    # the diagonal slot of row 0 holds the entry of Q+ that B/2 corrects
    assert ops.slot_cols[0, n] == 0
    d_plus[0, n] += 1e-3 / ops.m_diag[0]
    d_minus = ops.d_minus_slots.copy()
    d_minus[slot_of_nonzero(d_minus, -1)] *= 1.0 + 1e-6
    bad = with_slots(ops, d_minus_slots=d_minus, d_plus_slots=d_plus)
    report = verify_axioms(bad)
    assert certificate(report) == scipy_set_certificate(bad)
    assert report.sbp_residual == pytest.approx(1e-3, rel=1e-9)
    assert not report.axiom_accuracy_pass
    assert report.axiom_norm_boundary_pass
    assert not report.axiom_sbp_pass and not report.axiom_dissipation_pass


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_c_entry_fails_dissipation(bad):
    ops = make_opset(2, 4, 0.5, "periodic")
    c = ops.c_slots.copy()
    c[slot_of_nonzero(c, 0)] = bad
    bad_ops = dataclasses.replace(ops, c_slots=c)
    assert np.isnan(max_eig_sym(bad_ops.C))
    report = verify_axioms(bad_ops)
    assert not np.isfinite(report.c_max_eigenvalue)
    assert not np.isfinite(report.c_symmetry_residual)
    assert not report.axiom_dissipation_pass and not report.all_pass
    assert "c_max_eigenvalue: nan" in report.to_text()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["D_minus", "D_plus", "Q_plus", "Q_minus"])
def test_non_finite_entry_fails_its_axiom(field, bad):
    # Q is not stored: the verifier forms Q = M D - B/2 from the slots of D, so
    # a non-finite entry of Q comes from its slot of D, and the entry fails
    # both the accuracy of D and the SBP relation of Q
    ops = make_opset(2, 4, 0.5, "bounded")
    name = "d_" + field.split("_")[1] + "_slots"
    slots = getattr(ops, name).copy()
    slot = slot_of_nonzero(slots, np.count_nonzero(slots) // 2)
    slots[slot] = bad
    bad_ops = dataclasses.replace(ops, **{name: slots})
    if field.startswith("Q"):
        q = dict(zip(("Q_minus", "Q_plus"), q_pair(bad_ops)))[field]
        assert not np.isfinite(q[slot[0], ops.slot_cols[slot]])
    report = verify_axioms(bad_ops)
    assert not np.isfinite(report.accuracy_residual)
    assert not report.axiom_accuracy_pass
    assert not np.isfinite(report.sbp_residual)
    assert not report.axiom_sbp_pass
    assert not report.all_pass


def test_non_finite_boundary_vector_fails_its_axiom():
    ops = make_opset(2, 4, 0.5, "bounded")
    t_beta = ops.t_beta.copy()
    t_beta[-1] = np.nan
    report = verify_axioms(dataclasses.replace(ops, t_beta=t_beta))
    assert np.isnan(report.boundary_residual_beta)
    assert not report.axiom_norm_boundary_pass
    rows = cli._certification_rows(report)
    assert ("norm_boundary", "nan", "fail") in [(row[4], row[5], row[7]) for row in rows]


@pytest.mark.parametrize("topology", ["periodic", "bounded"])
@pytest.mark.parametrize("theta", [0.5, 0.25])
def test_jump_identity(theta, topology):
    ops = make_opset(2, 6, theta, topology)
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = rng.standard_normal(ops.dim)
        quad = u @ (ops.C @ u)
        jumps = interface_jumps(ops, u)
        assert quad == pytest.approx(-theta * np.sum(jumps**2), abs=1e-12)


def test_continuous_data_has_zero_dissipation():
    ops = make_opset(3, 5, 0.5, "bounded")
    u = np.sin(physical_nodes(ops.mesh, ops.elem))
    assert abs(u @ (ops.C @ u)) <= 1e-14


def test_single_jump_quadratic_form():
    # piecewise constant with one interface jump of size 2: u' C u = -theta * 4
    ops = make_opset(1, 4, 0.5, "bounded", interval=(0.0, 4.0))
    u = np.concatenate([np.zeros(4), 2.0 * np.ones(4)])
    assert u @ (ops.C @ u) == pytest.approx(-2.0, abs=1e-14)


# ------------------------------------------------------- second derivative


def second_derivative(elem, mesh, theta_diff, topology="periodic"):
    """D2(theta) = D-(theta) D+(theta) from a fresh assembly."""
    return second_derivative_from(assemble_first_derivative(elem, mesh, theta_diff, topology))


def test_d2_annihilates_constants():
    d2op = second_derivative(build_lgl(2), uniform_mesh(-np.pi, np.pi, 6), 0.5)
    assert np.max(np.abs(d2op.D2 @ np.ones(18))) <= 1e-12


@pytest.mark.parametrize("theta", [0.0, 0.25, 0.5])
def test_d2_norm_identity_periodic(theta):
    ops = make_opset(2, 6, theta, "periodic")
    d2op = second_derivative_from(ops)
    m = sp.diags(ops.m_diag)
    res = m @ d2op.D2 + ops.D_plus.T @ m @ ops.D_plus
    assert abs(res).max() <= 1e-12


def test_ldg_variants_are_transposes_of_each_other():
    # D2(-theta) = D-(-t)D+(-t) = D+(t)D-(t), the companion product
    elem, mesh = build_lgl(2), uniform_mesh(-1.0, 1.0, 4)
    ops = assemble_first_derivative(elem, mesh, 0.5, "periodic")
    d2b = second_derivative(elem, mesh, -0.5)
    want = ops.D_plus @ ops.D_minus
    assert abs(d2b.D2 - want).max() <= 1e-12


def test_d2_bounded_polynomial_action():
    # two exact first derivatives compose on polynomial data of degree <= N
    degree, n_cells = 3, 5
    elem, mesh = build_lgl(degree), uniform_mesh(-1.0, 1.0, n_cells)
    ops = assemble_first_derivative(elem, mesh, 0.25, "bounded")
    d2op = second_derivative_from(ops)
    x = physical_nodes(mesh, elem)
    for k in range(degree):  # k+1 <= N
        got = d2op.D2 @ x ** (k + 1)
        want = (k + 1) * k * x ** (k - 1) if k >= 1 else np.zeros_like(x)
        assert np.max(np.abs(got - want)) <= 1e-10


# ------------------------------------------------------------ verification


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("n_cells", [4, 20])
@pytest.mark.parametrize("theta", [0.0, 0.25, 0.5])
def test_axioms_certified(degree, n_cells, theta):
    report = verify_axioms(make_opset(degree, n_cells, theta, "bounded"))
    assert report.all_pass, report.to_text()
    report_p = verify_axioms(make_opset(degree, n_cells, theta, "periodic"))
    assert report_p.axiom_sbp_pass and report_p.axiom_dissipation_pass
    assert report_p.accuracy_residual is None


def graded_mesh(seed):
    """A mesh of random size and position whose widths grow or shrink geometrically."""
    rng = np.random.default_rng(seed)
    n_cells = int(rng.integers(2, 13))
    widths = rng.uniform(0.2, 1.0) * rng.uniform(0.7, 1.4) ** np.arange(n_cells)
    x_a = float(rng.uniform(-3.0, 1.0))
    return Mesh1D(x_a, x_a + float(np.sum(widths)), widths)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("topology", ["periodic", "bounded"])
def test_verifier_bits_on_graded_meshes(seed, topology):
    # the CLI goldens pin the verifier on uniform meshes only; here each
    # residual is the scipy expression's, bit for bit
    mesh = graded_mesh(seed)
    for degree in range(1, 6):
        elem = build_lgl(degree)
        for theta in (0.0, 0.25, 0.5):
            ops = assemble_first_derivative(elem, mesh, theta, topology)
            report = verify_axioms(ops)
            m = sp.diags(ops.m_diag)
            q_minus, q_plus = m @ ops.D_minus, m @ ops.D_plus
            if topology == "bounded":
                half_b = 0.5 * reference_boundary_operator(elem, ops.dim)
                q_minus, q_plus = q_minus - half_b, q_plus - half_b
            c = ops.C
            assert report.sbp_residual == abs(q_plus + q_minus.T).max()
            assert report.c_symmetry_residual == abs(c - c.T).max()
            assert report.c_max_eigenvalue == scipy_max_eig_sym(c)
            if topology == "periodic":
                assert report.accuracy_residual is None
                continue
            x = physical_nodes(mesh, elem)
            powers = np.array([x**k for k in range(degree + 1)])
            derivs = np.arange(degree + 1)[:, None] * np.vstack([np.zeros_like(x), powers[:-1]])
            scale = np.maximum(1.0, np.max(np.abs(powers), axis=1))
            want = max(
                float(np.max(np.max(np.abs(d @ powers.T - derivs.T), axis=0) / scale))
                for d in (ops.D_minus, ops.D_plus)
            )
            assert report.accuracy_residual == want


def test_report_serialization_roundtrip_fields():
    report = verify_axioms(make_opset(2, 4, 0.5, "bounded"))
    text = report.to_text()
    assert "axiom_sbp: pass" in text
    rows = cli._certification_rows(report)
    assert len(rows) == 4
    assert all(r[-1] == "pass" for r in rows)


def test_random_quadratic_form_sign():
    ops = make_opset(2, 8, 0.5, "periodic")
    rng = np.random.default_rng(3)
    for _ in range(25):
        u = rng.standard_normal(ops.dim)
        assert u @ (ops.C @ u) <= 1e-12 * (u @ u)


# -------------------------------------------------- global invariants


@pytest.mark.parametrize("theta", [0.0, 0.25, 0.5])
def test_conservation_periodic(theta):
    ops = make_opset(2, 7, theta, "periodic")
    ones_m = ops.m_diag  # row vector 1^T M
    assert np.max(np.abs(ones_m @ ops.D_minus.toarray())) <= 1e-12
    assert np.max(np.abs(ones_m @ ops.D_plus.toarray())) <= 1e-12
