import numpy as np
import pytest

from upwind_gsbp.ref_element import build_lgl

ALL_DEGREES = range(1, 17)


def exact_monomial_integral(k: int) -> float:
    # integral of x^k over (-1, 1)
    return 2.0 / (k + 1) if k % 2 == 0 else 0.0


@pytest.mark.parametrize(
    "degree,nodes,weights",
    [
        # N=1: endpoints with equal weights (symmetry + sum 2 force this)
        (1, [-1.0, 1.0], [1.0, 1.0]),
        # N=2: P_2' = 3x  ->  interior root 0; w = 2/(N(N+1)P_N^2)
        (2, [-1.0, 0.0, 1.0], [1 / 3, 4 / 3, 1 / 3]),
        # N=3: P_3' = (15x^2-3)/2  ->  roots +-1/sqrt(5)
        (
            3,
            [-1.0, -1.0 / np.sqrt(5), 1.0 / np.sqrt(5), 1.0],
            [1 / 6, 5 / 6, 5 / 6, 1 / 6],
        ),
    ],
)
def test_lgl_closed_forms(degree, nodes, weights):
    elem = build_lgl(degree)
    np.testing.assert_allclose(elem.nodes, nodes, atol=1e-15)
    np.testing.assert_allclose(elem.weights, weights, atol=1e-15)


@pytest.mark.parametrize("degree", ALL_DEGREES)
def test_weights_positive_and_sum_to_two(degree):
    elem = build_lgl(degree)
    assert np.all(elem.weights > 0)
    assert abs(np.sum(elem.weights) - 2.0) <= 1e-13


@pytest.mark.parametrize("degree", ALL_DEGREES)
def test_quadrature_exactness(degree):
    elem = build_lgl(degree)
    for k in range(2 * degree):
        got = float(np.dot(elem.weights, elem.nodes**k))
        assert abs(got - exact_monomial_integral(k)) <= 1e-13, (degree, k)


@pytest.mark.parametrize("degree", ALL_DEGREES)
def test_node_symmetry(degree):
    elem = build_lgl(degree)
    assert np.all(np.diff(elem.nodes) > 0)
    np.testing.assert_array_equal(elem.nodes, -elem.nodes[::-1])
    np.testing.assert_array_equal(elem.weights, elem.weights[::-1])


@pytest.mark.parametrize("degree", ALL_DEGREES)
def test_cell_sbp_identity(degree):
    elem = build_lgl(degree)
    mass = np.diag(elem.weights)
    lhs = mass @ elem.diff + elem.diff.T @ mass
    rhs = np.outer(elem.boundary_right, elem.boundary_right) - np.outer(
        elem.boundary_left, elem.boundary_left
    )
    assert np.max(np.abs(lhs - rhs)) <= 1e-13


def test_diff_matrix_linear_case():
    # differentiate the two linear Lagrange basis functions on (-1, 1)
    elem = build_lgl(1)
    np.testing.assert_allclose(
        elem.diff, [[-0.5, 0.5], [-0.5, 0.5]], atol=1e-15
    )


@pytest.mark.parametrize("degree", ALL_DEGREES)
def test_diff_matrix_monomial_action(degree):
    elem = build_lgl(degree)
    d = elem.diff
    np.testing.assert_allclose(d @ np.ones(degree + 1), 0.0, atol=1e-13)
    np.testing.assert_allclose(d @ elem.nodes, 1.0, atol=1e-13)
    for k in range(degree + 1):
        want = k * elem.nodes ** (k - 1) if k > 0 else np.zeros(degree + 1)
        np.testing.assert_allclose(d @ elem.nodes**k, want, atol=1e-13)


@pytest.mark.parametrize("degree", ALL_DEGREES)
def test_boundary_vectors_are_unit_vectors(degree):
    # LGL nodal sets contain the endpoints, pinned exactly at -1 and +1
    elem = build_lgl(degree)
    assert elem.nodes[0] == -1.0 and elem.nodes[-1] == 1.0
    e_first = np.zeros(degree + 1)
    e_first[0] = 1.0
    for got, want in ((elem.boundary_left, e_first), (elem.boundary_right, e_first[::-1])):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("degree", [1, 2, 3, 5])
def test_boundary_interpolation_exactness(degree):
    elem = build_lgl(degree)
    for l in range(degree + 1):
        assert abs(elem.boundary_left @ elem.nodes**l - (-1.0) ** l) <= 1e-13
        assert abs(elem.boundary_right @ elem.nodes**l - 1.0) <= 1e-13


@pytest.mark.parametrize("degree", [0, -1, 17, 100])
def test_degree_out_of_range(degree):
    with pytest.raises(ValueError):
        build_lgl(degree)
