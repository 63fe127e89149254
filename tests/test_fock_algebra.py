import numpy as np
import pytest

from qdblockade import (
    DimensionMismatchError,
    HilbertSpace,
    annihilation_op,
    dagger,
    expectation,
    fock_annihilation,
    qd_lowering_op,
    qd_sigma_minus,
    tensor,
    validate_density_matrix,
)

from fock_helpers import basis_state, creation_op, identity, number_op

SQRT2 = np.sqrt(2.0)


def test_space_dimensions():
    space = HilbertSpace(8)
    assert space.fock_dim == 9
    assert space.dim == 18
    assert HilbertSpace(2).dim == 6


def test_space_rejects_tiny_cutoff():
    with pytest.raises(ValueError):
        HilbertSpace(1)
    with pytest.raises(ValueError):
        HilbertSpace(photon_cutoff=8, qd_levels=3)


def test_index_is_qd_major():
    space = HilbertSpace(4)
    assert space.index(0, 0) == 0
    assert space.index(0, 4) == 4
    assert space.index(1, 0) == 5
    assert space.index(1, 3) == 8
    with pytest.raises(ValueError):
        space.index(2, 0)
    with pytest.raises(ValueError):
        space.index(0, 5)


def test_fock_ladder_matrix():
    a = fock_annihilation(2)
    expected = np.array([[0, 1, 0], [0, 0, SQRT2], [0, 0, 0]], dtype=complex)
    assert np.array_equal(a, expected)


def test_composite_annihilation_is_identity_tensor_ladder():
    space = HilbertSpace(2)
    a = annihilation_op(space)
    assert a.shape == (6, 6)
    assert np.array_equal(a, np.kron(np.eye(2), fock_annihilation(2)))


def test_number_operator_eigenvalues():
    space = HilbertSpace(5)
    n_op = number_op(space)
    for qd in (0, 1):
        for n in range(space.photon_cutoff + 1):
            v = basis_state(space, qd, n)
            assert abs(v.conj() @ n_op @ v - n) < 1e-12


def test_qd_sigma_minus_matrix():
    sm = qd_sigma_minus()
    assert np.array_equal(sm, np.array([[0, 1], [0, 0]], dtype=complex))
    # two-level nilpotency
    assert np.array_equal(sm @ sm, np.zeros((2, 2)))


def test_qd_lowering_composite_algebra():
    space = HilbertSpace(3)
    sm = qd_lowering_op(space)
    sp = dagger(sm)
    # anticommutator closes to the identity on the composite space
    assert np.allclose(sm @ sp + sp @ sm, identity(space))
    # sigma+ sigma- projects onto the excited dot state
    e0 = basis_state(space, 1, 0)
    assert abs(e0.conj() @ (sp @ sm) @ e0 - 1.0) < 1e-12
    g0 = basis_state(space, 0, 0)
    assert abs(g0.conj() @ (sp @ sm) @ g0) < 1e-12


def test_tensor_identity_and_ordering():
    assert np.array_equal(tensor(np.eye(2), np.eye(3)), np.eye(6))
    space = HilbertSpace(2)
    # <e,1| (sigma+sigma- (x) n) |e,1> = 1 pins the dot-major ordering
    sm = qd_sigma_minus()
    nf = dagger(fock_annihilation(2)) @ fock_annihilation(2)
    op = tensor(dagger(sm) @ sm, nf, space)
    e1 = basis_state(space, 1, 1)
    assert abs(e1.conj() @ op @ e1 - 1.0) < 1e-12


def test_tensor_factorizes_products():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    left = tensor(a, np.eye(4)) @ tensor(np.eye(2), b)
    assert np.allclose(left, tensor(a, b))


def test_tensor_dimension_checks():
    with pytest.raises(DimensionMismatchError):
        tensor(np.ones((2, 3)), np.eye(3))
    with pytest.raises(DimensionMismatchError):
        tensor(np.eye(2), np.eye(3), HilbertSpace(8))


def test_dagger_involution_and_distribution():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.array_equal(dagger(dagger(a)), a)
    assert np.allclose(dagger(tensor(a, b)), tensor(dagger(a), dagger(b)))


def test_commutator_truncation_law():
    # [a, a'] = 1 below the cutoff but -N on the topmost Fock level
    for cutoff in (2, 5, 9):
        a = fock_annihilation(cutoff)
        comm = a @ dagger(a) - dagger(a) @ a
        expected = np.eye(cutoff + 1, dtype=complex)
        expected[cutoff, cutoff] = -cutoff
        assert np.allclose(comm, expected, atol=1e-12)


def test_creation_is_adjoint_of_annihilation():
    space = HilbertSpace(6)
    assert np.array_equal(creation_op(space), dagger(annihilation_op(space)))


def test_expectation_on_basis_states():
    space = HilbertSpace(2)
    n_op = number_op(space)
    vac = np.outer(basis_state(space, 0, 0), basis_state(space, 0, 0).conj())
    one = np.outer(basis_state(space, 0, 1), basis_state(space, 0, 1).conj())
    assert abs(expectation(vac, n_op)) < 1e-15
    assert abs(expectation(one, n_op) - 1.0) < 1e-15


def test_expectation_maximally_mixed():
    space = HilbertSpace(2)
    rho = identity(space) / space.dim
    # photon numbers 0,0,1,1,2,2 average to 1
    assert abs(expectation(rho, number_op(space)) - 1.0) < 1e-12


def test_expectation_is_trace_functional():
    space = HilbertSpace(3)
    rng = np.random.default_rng(3)
    m = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
    rho = m @ dagger(m)
    rho /= np.trace(rho)
    assert abs(expectation(rho, identity(space)) - np.trace(rho)) < 1e-12


def test_expectation_real_for_hermitian_operator():
    space = HilbertSpace(4)
    rng = np.random.default_rng(5)
    m = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
    rho = m @ dagger(m)
    rho /= np.trace(rho)
    val = expectation(rho, number_op(space))
    assert abs(val.imag) < 1e-10


def test_expectation_shape_checks():
    space = HilbertSpace(2)
    rho = identity(space) / space.dim
    with pytest.raises(DimensionMismatchError):
        expectation(rho, np.eye(4))
    with pytest.raises(DimensionMismatchError):
        expectation(np.ones((2, 3)), np.eye(3))


def test_validate_density_matrix_accepts_physical_state():
    space = HilbertSpace(3)
    rho = identity(space) / space.dim
    validate_density_matrix(rho)


def test_validate_density_matrix_rejects_defects():
    good = np.eye(4) / 4.0
    bad_herm = good + 1e-6 * np.array([[0, 1j, 0, 0]] + [[0] * 4] * 3)
    with pytest.raises(ValueError, match="Hermitian"):
        validate_density_matrix(bad_herm)
    with pytest.raises(ValueError, match="trace"):
        validate_density_matrix(np.eye(4) / 3.0)
    neg = np.diag([0.6, 0.5, -0.1, 0.0])
    with pytest.raises(ValueError, match="positive"):
        validate_density_matrix(neg)
