import numpy as np
import pytest

from qdblockade import HilbertSpace, steady_state

from fock_helpers import (
    basis_index,
    basis_state,
    cavity_lowering,
    creation_op,
    dot_lowering,
    identity,
    number_op,
    validate_density_matrix,
)

SQRT2 = np.sqrt(2.0)


def test_space_dimensions():
    space = HilbertSpace(8)
    assert space.fock_dim == 9
    assert space.dim == 18
    assert HilbertSpace(2).dim == 6


def test_space_rejects_tiny_cutoff():
    with pytest.raises(ValueError):
        HilbertSpace(1)


def test_index_is_qd_major():
    space = HilbertSpace(4)
    assert basis_index(space, 0, 0) == 0
    assert basis_index(space, 0, 4) == 4
    assert basis_index(space, 1, 0) == 5
    assert basis_index(space, 1, 3) == 8
    with pytest.raises(ValueError):
        basis_index(space, 2, 0)
    with pytest.raises(ValueError):
        basis_index(space, 0, 5)


def test_fock_ladder_matrix():
    a = cavity_lowering(HilbertSpace(2))
    expected = np.array([[0, 1, 0], [0, 0, SQRT2], [0, 0, 0]], dtype=complex)
    # the same ladder on the |g> and on the |e> block, nothing between them
    assert a.dtype == complex
    assert np.array_equal(a[:3, :3], expected)
    assert np.array_equal(a[3:, 3:], expected)
    assert not a[:3, 3:].any() and not a[3:, :3].any()


def test_composite_annihilation_is_identity_tensor_ladder():
    for cutoff in (2, 7):
        space = HilbertSpace(cutoff)
        a = cavity_lowering(space)
        assert a.shape == (space.dim, space.dim)
        ladder = np.diag(np.sqrt(np.arange(1.0, space.fock_dim)), k=1)
        assert np.array_equal(a, np.kron(np.eye(2), ladder))


def test_number_operator_eigenvalues():
    space = HilbertSpace(5)
    n_op = number_op(space)
    for qd in (0, 1):
        for n in range(space.photon_cutoff + 1):
            v = basis_state(space, qd, n)
            assert abs(v.conj() @ n_op @ v - n) < 1e-12


def test_qd_sigma_minus_matrix():
    space = HilbertSpace(3)
    sm = dot_lowering(space)
    assert sm.dtype == complex
    # |g, n><e, n|: the identity in the upper right Fock block, zeros elsewhere
    assert np.array_equal(sm[:4, 4:], np.eye(4))
    assert np.count_nonzero(sm) == 4
    # two-level nilpotency
    assert not (sm @ sm).any()


def test_qd_lowering_composite_algebra():
    space = HilbertSpace(3)
    sm = dot_lowering(space)
    sp = sm.conj().T
    # anticommutator closes to the identity on the composite space
    assert np.allclose(sm @ sp + sp @ sm, identity(space))
    # sigma+ sigma- projects onto the excited dot state
    e0 = basis_state(space, 1, 0)
    assert abs(e0.conj() @ (sp @ sm) @ e0 - 1.0) < 1e-12
    g0 = basis_state(space, 0, 0)
    assert abs(g0.conj() @ (sp @ sm) @ g0) < 1e-12


def test_tensor_identity_and_ordering():
    space = HilbertSpace(2)
    a, sm = cavity_lowering(space), dot_lowering(space)
    # each acts as the identity on the other factor, so the two commute
    assert np.array_equal(a @ sm, sm @ a)
    # <e,1| (sigma+sigma- (x) n) |e,1> = 1 pins the dot-major ordering
    op = sm.conj().T @ sm @ a.conj().T @ a
    e1 = basis_state(space, 1, 1)
    assert e1.conj() @ op @ e1 == 1.0
    assert basis_index(space, 1, 1) == 4 and op[4, 4] == 1.0


def test_commutator_truncation_law():
    # [a, a'] = 1 below the cutoff but -N on the topmost Fock level
    for cutoff in (2, 5, 9):
        a = cavity_lowering(HilbertSpace(cutoff))
        comm = a @ a.conj().T - a.conj().T @ a
        fock = np.eye(cutoff + 1, dtype=complex)
        fock[cutoff, cutoff] = -cutoff
        assert np.allclose(comm, np.kron(np.eye(2), fock), atol=1e-12)


def test_creation_is_adjoint_of_annihilation():
    space = HilbertSpace(6)
    assert np.array_equal(creation_op(space), cavity_lowering(space).conj().T)


def test_expectation_on_basis_states():
    space = HilbertSpace(2)
    vac = np.outer(basis_state(space, 0, 0), basis_state(space, 0, 0).conj())
    one = np.outer(basis_state(space, 0, 1), basis_state(space, 0, 1).conj())
    excited_two = np.outer(basis_state(space, 1, 2), basis_state(space, 1, 2).conj())
    assert steady_state._statistics(np.diagonal(vac), space)[1] == 0.0
    assert steady_state._statistics(np.diagonal(one), space)[1] == 1.0
    assert steady_state._statistics(np.diagonal(excited_two), space)[1] == 2.0


def test_expectation_maximally_mixed():
    space = HilbertSpace(2)
    rho = identity(space) / space.dim
    # photon numbers 0,0,1,1,2,2 average to 1
    assert abs(steady_state._statistics(np.diagonal(rho), space)[1] - 1.0) < 1e-12


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
