"""The dot (x) cavity Hilbert space and its two ladder operators.

The composite basis ordering is fixed package-wide and QD-major,

    index(qd, n) = qd * (N + 1) + n,

with qd = 0 for the dot ground state |g>, qd = 1 for the excited state |e>,
and n = 0..N the Fock level of the fundamental cavity mode truncated at
cutoff N.  Operators are plain dense complex ndarrays of dimension
d = 2 (N + 1), at most 82 at the CLI's top cutoff of 40; only the d^2 x d^2
Lindblad generator built from them (:mod:`model`) is sparse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HilbertSpace",
    "annihilation_op",
    "qd_lowering_op",
    "validate_density_matrix",
]


@dataclass(frozen=True)
class HilbertSpace:
    """Two-level dot tensored with a Fock space truncated at ``photon_cutoff``.

    The cutoff must keep at least the two-photon states (N >= 2): the
    blockade observables and the weak-drive truncation live there.
    """

    photon_cutoff: int

    def __post_init__(self) -> None:
        if self.photon_cutoff < 2:
            raise ValueError(f"photon_cutoff must be >= 2, got {self.photon_cutoff}")

    @property
    def fock_dim(self) -> int:
        return self.photon_cutoff + 1

    @property
    def dim(self) -> int:
        return 2 * self.fock_dim


def annihilation_op(space: HilbertSpace) -> np.ndarray:
    """Cavity annihilation on the composite space, I_2 (x) a with <n-1| a |n> = sqrt(n)."""
    ladder = np.diag(np.sqrt(np.arange(1.0, space.fock_dim)), k=1)
    return np.kron(np.eye(2), ladder).astype(complex)


def qd_lowering_op(space: HilbertSpace) -> np.ndarray:
    """Dot lowering on the composite space, |g><e| (x) I_fock."""
    return np.kron([[0.0, 1.0], [0.0, 0.0]], np.eye(space.fock_dim)).astype(complex)


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
