from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from qdblockade import HilbertSpace, ModelParams, build_liouvillian
from qdblockade.model import _generator_parts

from dense_oracle import dense_liouvillian, kron_generator_parts
from fock_helpers import basis_index, basis_state, hamiltonian, identity, unvec, vec

SQRT2 = np.sqrt(2.0)


def outer(v):
    return np.outer(v, v.conj())


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(kappa=-1.0)
    with pytest.raises(ValueError):
        ModelParams(gamma=-0.5)
    for field in ("g", "E", "U"):
        with pytest.raises(ValueError):
            ModelParams(**{field: -0.1})
    for field in ("delta", "delta_a", "g", "E", "U", "kappa", "gamma"):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="finite"):
                ModelParams(**{field: bad})
    # zero rates are legal: they realize the purely coherent limits
    ModelParams(kappa=0.0)
    ModelParams(gamma=0.0)


def test_hamiltonian_diagonal_when_undriven():
    space = HilbertSpace(4)
    p = ModelParams(delta=3.0, delta_a=-1.5)
    h = hamiltonian(p, space)
    assert np.allclose(h, np.diag(np.diag(h)))
    for n in range(space.photon_cutoff + 1):
        g_idx = basis_index(space, 0, n)
        e_idx = basis_index(space, 1, n)
        assert abs(h[g_idx, g_idx] - n * p.delta_a) < 1e-12
        assert abs(h[e_idx, e_idx] - (n * p.delta_a + p.delta)) < 1e-12


def test_hamiltonian_matrix_elements():
    space = HilbertSpace(4)
    p = ModelParams(delta=-7.0, delta_a=2.0, g=20.0, E=0.1, U=0.0005)
    h = hamiltonian(p, space)
    # two-photon drive connects |0,g> to |2,g> with the sqrt(2) ladder factor
    assert abs(h[basis_index(space, 0, 2), basis_index(space, 0, 0)] - SQRT2 * p.U) < 1e-15
    # exchange coupling between |1,e> and |2,g> carries the same factor
    assert abs(h[basis_index(space, 1, 1), basis_index(space, 0, 2)] - SQRT2 * p.g) < 1e-12
    assert abs(h[basis_index(space, 0, 1), basis_index(space, 1, 0)] - p.g) < 1e-12
    assert abs(h[basis_index(space, 0, 1), basis_index(space, 0, 0)] - p.E) < 1e-15


def test_hamiltonian_hermitian_for_random_params():
    space = HilbertSpace(5)
    rng = np.random.default_rng(23)
    for _ in range(20):
        p = ModelParams(delta=rng.uniform(-60, 60), delta_a=rng.uniform(-60, 60),
                        g=rng.uniform(0, 30), E=rng.uniform(0, 0.5),
                        U=rng.uniform(0, 0.01), kappa=rng.uniform(0.1, 3))
        h = hamiltonian(p, space)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_vec_is_column_stacking():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(vec(m), np.array([1.0, 3.0, 2.0, 4.0]))


def test_vec_unvec_roundtrip():
    rng = np.random.default_rng(29)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    assert np.array_equal(unvec(vec(m)), m)
    with pytest.raises(ValueError):
        unvec(np.zeros(5))


def test_liouvillian_pure_photon_decay():
    space = HilbertSpace(3)
    p = ModelParams(kappa=1.0, gamma=0.0)  # H = 0, photon loss only
    liou = build_liouvillian(p, space)
    rho = outer(basis_state(space, 0, 1))
    drho = unvec(liou @ vec(rho))
    expected = outer(basis_state(space, 0, 0)) - rho
    assert np.allclose(drho, expected, atol=1e-14)


def test_liouvillian_pure_dot_decay():
    space = HilbertSpace(2)
    p = ModelParams(kappa=0.0, gamma=1.0)
    liou = build_liouvillian(p, space)
    rho = outer(basis_state(space, 1, 0))
    drho = unvec(liou @ vec(rho))
    expected = outer(basis_state(space, 0, 0)) - rho
    assert np.allclose(drho, expected, atol=1e-14)


def test_liouvillian_preserves_trace():
    space = HilbertSpace(4)
    p = ModelParams(delta=-20, delta_a=-20, g=20, E=0.1, U=0.0005)
    liou = build_liouvillian(p, space)
    tvec = vec(identity(space))
    # the trace functional is a left null vector of the generator
    assert np.max(np.abs(tvec @ liou)) < 1e-10
    rng = np.random.default_rng(31)
    for _ in range(100):
        m = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
        rho = m + m.conj().T
        assert abs(np.trace(unvec(liou @ vec(rho)))) < 1e-10


def test_sparse_generator_equals_dense_kron_sum():
    rng = np.random.default_rng(37)
    for cutoff in (2, 4, 8, 12):
        space = HilbertSpace(cutoff)
        for _ in range(5):
            p = ModelParams(delta=rng.uniform(-60, 60), delta_a=rng.uniform(-60, 60),
                            g=rng.uniform(0, 30), E=rng.uniform(0, 0.5),
                            U=rng.uniform(0, 0.01), kappa=rng.uniform(0.1, 3),
                            gamma=rng.uniform(0.1, 3))
            # the U = 0 and g = 0 limits zero one weight each, which leaves explicit zeros
            for q in (p, replace(p, U=0.0), replace(p, g=0.0), ModelParams()):
                liou = build_liouvillian(q, space)
                assert sp.issparse(liou) and liou.format == "csc"
                assert np.array_equal(liou.toarray(), dense_liouvillian(q, space))


def test_generator_parts_equal_kronecker_oracle():
    # toarray() cannot see the CSC pattern or its order, on which the solver's
    # cached ordering is computed
    for cutoff in (2, 3, 4, 8, 10, 12, 16, 20, 40):
        parts = _generator_parts(HilbertSpace(cutoff))
        oracle = kron_generator_parts(HilbertSpace(cutoff))
        for got, want, dtype in zip(parts, oracle, (np.int32, np.int32, np.float64)):
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(got, want)
            assert not got.flags.writeable


def test_dark_state_is_stationary_without_drives():
    space = HilbertSpace(4)
    p = ModelParams(delta=5.0, delta_a=-3.0, g=20.0, E=0.0, U=0.0)
    liou = build_liouvillian(p, space)
    rho0 = vec(outer(basis_state(space, 0, 0)))
    assert np.max(np.abs(liou @ rho0)) < 1e-12

