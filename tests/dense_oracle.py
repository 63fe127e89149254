"""Dense Liouvillian and dense LU steady state, kept as an oracle for the sparse solver.

Every operator here comes from the explicit matrices of :mod:`fock_helpers`
and every n^2 x n^2 block is a dense ndarray built with ``np.kron``; nothing
is taken from the package's own operator or generator code.  The steady
state replaces row 0 with the trace functional, factors with
``scipy.linalg.lu_factor`` and takes one refinement step.  The package solves
the same system sparsely; these functions let the tests compare the two.
"""

import numpy as np
from scipy import linalg as sla

from qdblockade import HilbertSpace, ModelParams

from fock_helpers import cavity_lowering, dot_lowering, hamiltonian_parts, identity


def dense_dissipator(op: np.ndarray) -> np.ndarray:
    """Superoperator for 2 o rho o' - o'o rho - rho o'o (column stacking)."""
    eye = np.eye(op.shape[0], dtype=complex)
    nop = op.conj().T @ op
    return (2.0 * np.kron(op.conj(), op)
            - np.kron(eye, nop)
            - np.kron(nop.T, eye))


def dense_liouvillian(params: ModelParams, space: HilbertSpace) -> np.ndarray:
    """Dense generator L = -i (I (x) H - H^T (x) I) + (kappa/2) D[a] + (gamma/2) D[s-]."""
    eye = identity(space)
    commutators = [-1j * (np.kron(eye, h) - np.kron(h.T, eye))
                   for h in hamiltonian_parts(space)]
    weights = (params.delta, params.delta_a, params.g, params.E, params.U)
    liou = (0.5 * params.kappa * dense_dissipator(cavity_lowering(space))
            + 0.5 * params.gamma * dense_dissipator(dot_lowering(space)))
    for w, k in zip(weights, commutators):
        if w != 0.0:
            liou += w * k
    return liou


def dense_steady_state(params: ModelParams, space: HilbertSpace) -> np.ndarray:
    """vec(rho) from dense LU with trace-row replacement and one refinement step."""
    liou = dense_liouvillian(params, space)
    a = liou.copy()
    a[0, :] = identity(space).reshape(-1)  # vec(I): the trace functional
    b = np.zeros(a.shape[0], dtype=complex)
    b[0] = 1.0
    lu, piv = sla.lu_factor(a)
    x = sla.lu_solve((lu, piv), b)
    x += sla.lu_solve((lu, piv), b - a @ x)
    return x
