"""Operators, states and checks that only the tests build on the dot (x) cavity space.

The ladder operators are written out entry by entry and tensored with
``np.kron`` in the dot-major order, apart from the package's own
construction, so the tests can check the package against them.
"""

import math

import numpy as np

from qdblockade import HilbertSpace, ModelParams


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


def hamiltonian_parts(space: HilbertSpace) -> tuple[np.ndarray, ...]:
    """s+s-, a'a, s+a + s-a', a + a', a^2 + a'^2: the weights of delta .. U in H."""
    a, sm = cavity_lowering(space), dot_lowering(space)
    ad, sd = a.conj().T, sm.conj().T
    return (sd @ sm, ad @ a, sd @ a + sm @ ad, a + ad, a @ a + ad @ ad)


def hamiltonian(params: ModelParams, space: HilbertSpace) -> np.ndarray:
    """Dense drive-frame H from the explicit ladders."""
    qd, cav, coupling, drive, squeeze = hamiltonian_parts(space)
    return (params.delta * qd
            + params.delta_a * cav
            + params.g * coupling
            + params.E * drive
            + params.U * squeeze)


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector, the package's superoperator convention."""
    return np.asarray(rho).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec`."""
    v = np.asarray(v)
    d = math.isqrt(v.size)
    if d * d != v.size:
        raise ValueError(f"vector of length {v.size} is not a stacked square matrix")
    return v.reshape((d, d), order="F")


def validate_density_matrix(rho: np.ndarray) -> None:
    """Raise ValueError unless rho is Hermitian and unit-trace to 1e-10 and has
    no eigenvalue below -1e-9."""
    rho = np.asarray(rho)
    herm_defect = np.max(np.abs(rho - rho.conj().T))
    if herm_defect > 1e-10:
        raise ValueError(f"density matrix not Hermitian: defect {herm_defect:.3e}")
    trace_defect = abs(np.trace(rho) - 1.0)
    if trace_defect > 1e-10:
        raise ValueError(f"density matrix trace off by {trace_defect:.3e}")
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if min_eig < -1e-9:
        raise ValueError(f"density matrix not positive: min eigenvalue {min_eig:.3e}")
