"""Operator algebra on the dot (x) cavity Hilbert space.

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

from .errors import DimensionMismatchError

__all__ = [
    "HilbertSpace",
    "annihilation_op",
    "dagger",
    "expectation",
    "fock_annihilation",
    "qd_lowering_op",
    "qd_sigma_minus",
    "tensor",
    "validate_density_matrix",
]


@dataclass(frozen=True)
class HilbertSpace:
    """Two-level dot tensored with a Fock space truncated at ``photon_cutoff``.

    The cutoff must keep at least the two-photon states (N >= 2): the
    blockade observables and the weak-drive truncation live there.
    """

    photon_cutoff: int
    qd_levels: int = 2

    def __post_init__(self) -> None:
        if self.qd_levels != 2:
            raise ValueError("only a two-level dot is supported")
        if self.photon_cutoff < 2:
            raise ValueError(f"photon_cutoff must be >= 2, got {self.photon_cutoff}")

    @property
    def fock_dim(self) -> int:
        return self.photon_cutoff + 1

    @property
    def dim(self) -> int:
        return self.qd_levels * self.fock_dim

    def index(self, qd: int, n: int) -> int:
        """Composite basis index of |qd, n> (qd: 0 = |g>, 1 = |e>)."""
        if qd not in (0, 1):
            raise ValueError(f"qd level must be 0 or 1, got {qd}")
        if not 0 <= n <= self.photon_cutoff:
            raise ValueError(f"Fock level {n} outside cutoff {self.photon_cutoff}")
        return qd * self.fock_dim + n


def fock_annihilation(photon_cutoff: int) -> np.ndarray:
    """Ladder operator on the bare Fock factor: <n-1| a |n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1.0, photon_cutoff + 1)), k=1).astype(complex)


def qd_sigma_minus() -> np.ndarray:
    """Dot lowering operator |g><e| on the bare two-level factor."""
    out = np.zeros((2, 2), dtype=complex)
    out[0, 1] = 1.0
    return out


def tensor(qd_part: np.ndarray, fock_part: np.ndarray,
           space: HilbertSpace | None = None) -> np.ndarray:
    """Kronecker product with the fixed dot-major factor ordering.

    If ``space`` is given, the product dimension is checked against it.
    """
    a = np.asarray(qd_part, dtype=complex)
    b = np.asarray(fock_part, dtype=complex)
    for m in (a, b):
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"tensor factors must be square, got shape {m.shape}")
    out = np.kron(a, b)
    if space is not None and out.shape[0] != space.dim:
        raise DimensionMismatchError(
            f"factor dims {a.shape[0]} x {b.shape[0]} do not compose to dim {space.dim}"
        )
    return out


def dagger(op: np.ndarray) -> np.ndarray:
    """Hermitian adjoint."""
    return np.asarray(op).conj().T


def annihilation_op(space: HilbertSpace) -> np.ndarray:
    """Cavity annihilation on the composite space, I_2 (x) a."""
    return tensor(np.eye(2), fock_annihilation(space.photon_cutoff), space)


def qd_lowering_op(space: HilbertSpace) -> np.ndarray:
    """Dot lowering on the composite space, sigma_minus (x) I_fock."""
    return tensor(qd_sigma_minus(), np.eye(space.fock_dim), space)


def expectation(rho: np.ndarray, op: np.ndarray) -> complex:
    """Trace functional Tr(rho O); real to ~1e-10 for Hermitian O and physical rho."""
    rho = np.asarray(rho)
    op = np.asarray(op)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatchError(f"density matrix must be square, got {rho.shape}")
    if op.shape != rho.shape:
        raise DimensionMismatchError(
            f"operator shape {op.shape} does not match state shape {rho.shape}"
        )
    return complex(np.einsum("ij,ji->", rho, op))


def validate_density_matrix(rho: np.ndarray, herm_tol: float = 1e-10,
                            trace_tol: float = 1e-10, eig_floor: float = -1e-9) -> None:
    """Raise ValueError unless rho is Hermitian, unit-trace and PSD within tolerance."""
    rho = np.asarray(rho)
    herm_defect = np.max(np.abs(rho - rho.conj().T))
    if herm_defect > herm_tol:
        raise ValueError(f"density matrix not Hermitian: defect {herm_defect:.3e}")
    trace_defect = abs(np.trace(rho) - 1.0)
    if trace_defect > trace_tol:
        raise ValueError(f"density matrix trace off by {trace_defect:.3e}")
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if min_eig < eig_floor:
        raise ValueError(f"density matrix not positive: min eigenvalue {min_eig:.3e}")
