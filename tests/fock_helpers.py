"""Operators and states that only the tests build on the dot (x) cavity space.

The ladder operators are written out entry by entry and tensored with
``np.kron`` in the dot-major order, apart from the package's own
construction, so the tests can check the package against them.  The one
exception is :func:`hamiltonian`, which weighs the package's own operator
blocks so that the tests can check them.
"""

import numpy as np

from qdblockade import HilbertSpace, ModelParams
from qdblockade.model import _hamiltonian_parts


def basis_index(space: HilbertSpace, qd: int, n: int) -> int:
    """Composite basis index of |qd, n> (qd: 0 = |g>, 1 = |e>), dot-major."""
    if qd not in (0, 1):
        raise ValueError(f"qd level must be 0 or 1, got {qd}")
    if not 0 <= n <= space.photon_cutoff:
        raise ValueError(f"Fock level {n} outside cutoff {space.photon_cutoff}")
    return qd * space.fock_dim + n


def cavity_lowering(space: HilbertSpace) -> np.ndarray:
    """I_2 (x) a with <n-1| a |n> = sqrt(n)."""
    a = np.zeros((space.fock_dim, space.fock_dim), dtype=complex)
    for n in range(1, space.fock_dim):
        a[n - 1, n] = np.sqrt(n)
    return np.kron(np.eye(2), a)


def dot_lowering(space: HilbertSpace) -> np.ndarray:
    """|g><e| (x) I_fock."""
    return np.kron(np.array([[0, 1], [0, 0]], dtype=complex), np.eye(space.fock_dim))


def identity(space: HilbertSpace) -> np.ndarray:
    return np.eye(space.dim, dtype=complex)


def creation_op(space: HilbertSpace) -> np.ndarray:
    return cavity_lowering(space).conj().T


def number_op(space: HilbertSpace) -> np.ndarray:
    return creation_op(space) @ cavity_lowering(space)


def basis_state(space: HilbertSpace, qd: int, n: int) -> np.ndarray:
    """Unit column vector |qd, n> on the composite space."""
    v = np.zeros(space.dim, dtype=complex)
    v[basis_index(space, qd, n)] = 1.0
    return v


def hamiltonian(params: ModelParams, space: HilbertSpace) -> np.ndarray:
    """Dense drive-frame H from the blocks the package builds its generator from."""
    qd, cav, coupling, drive, squeeze = _hamiltonian_parts(space)
    return (params.delta * qd
            + params.delta_a * cav
            + params.g * coupling
            + params.E * drive
            + params.U * squeeze)
