import numpy as np
import pytest

from upwind_gsbp.mesh import Mesh1D, physical_nodes, uniform_mesh
from upwind_gsbp.ref_element import build_lgl


def test_uniform_widths():
    mesh = uniform_mesh(-np.pi, np.pi, 20)
    np.testing.assert_allclose(mesh.widths, np.pi / 10, rtol=1e-15)
    assert abs(np.sum(mesh.widths) - 2 * np.pi) <= 1e-12 * 2 * np.pi


def test_two_cell_mesh():
    mesh = uniform_mesh(0.0, 1.0, 2)
    np.testing.assert_array_equal(mesh.widths, [0.5, 0.5])


def test_global_node_count():
    mesh = uniform_mesh(-1.0, 1.0, 4)
    for degree in (1, 2, 3):
        assert physical_nodes(mesh, build_lgl(degree)).size == 4 * (degree + 1)


def test_physical_nodes_duplicate_interfaces():
    nodes = physical_nodes(uniform_mesh(0.0, 2.0, 2), build_lgl(1))
    np.testing.assert_allclose(nodes, [0.0, 1.0, 1.0, 2.0], atol=1e-15)
    assert np.all(np.diff(nodes) >= 0)


def test_physical_nodes_single_cell_disallowed():
    with pytest.raises(ValueError):
        uniform_mesh(-1.0, 1.0, 1)


def test_physical_nodes_quadratic_cell():
    # K=2 on (-1,1): first cell maps (-1,0,1) -> (-1,-0.5,0)
    nodes = physical_nodes(uniform_mesh(-1.0, 1.0, 2), build_lgl(2))
    np.testing.assert_allclose(nodes[:3], [-1.0, -0.5, 0.0], atol=1e-15)


def test_physical_nodes_pi_mesh_first_cell():
    # affine image of (-1, 0, 1) in the first of 20 cells on (-pi, pi)
    mesh = uniform_mesh(-np.pi, np.pi, 20)
    nodes = physical_nodes(mesh, build_lgl(2))
    np.testing.assert_allclose(
        nodes[:3], [-np.pi, -np.pi + np.pi / 20, -np.pi + np.pi / 10], rtol=1e-14
    )


def test_shift_invariance_exact_for_dyadic_data():
    elem = build_lgl(3)
    base = physical_nodes(uniform_mesh(0.0, 2.0, 4), elem)
    shifted = physical_nodes(uniform_mesh(1.0, 3.0, 4), elem)
    np.testing.assert_array_equal(shifted, base + 1.0)


def test_nonuniform_mesh_cell_count():
    mesh = Mesh1D(0.0, 1.0, np.array([0.25, 0.5, 0.25]))
    assert mesh.n_cells == 3


@pytest.mark.parametrize(
    "args",
    [
        (1.0, 0.0, 4),  # reversed interval
        (0.0, 0.0, 4),  # empty interval
        (0.0, 1.0, 0),
    ],
)
def test_invalid_uniform_mesh(args):
    with pytest.raises(ValueError):
        uniform_mesh(*args)


def test_widths_must_sum_to_interval():
    with pytest.raises(ValueError):
        Mesh1D(0.0, 1.0, np.array([0.3, 0.3]))
    with pytest.raises(ValueError):
        Mesh1D(0.0, 1.0, np.array([0.5, -0.5, 1.0]))


def test_one_cell_mesh_is_rejected():
    with pytest.raises(ValueError, match="at least K = 2 cells"):
        Mesh1D(0.0, 1.0, np.array([1.0]))
