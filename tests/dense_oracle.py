"""Dense Liouvillian and dense LU steady state, kept as an oracle for the sparse solver.

Every n^2 x n^2 block here is a dense ndarray built with ``np.kron``; the
steady state replaces row 0 with the trace functional, factors with
``scipy.linalg.lu_factor`` and takes one refinement step.  The package solves
the same system sparsely; these functions let the tests compare the two.
"""

import numpy as np
from scipy import linalg as sla

from qdblockade import HilbertSpace, ModelParams, annihilation_op, dagger, qd_lowering_op
from qdblockade.model import _hamiltonian_parts, trace_vector


def dense_dissipator(op: np.ndarray) -> np.ndarray:
    """Superoperator for 2 o rho o' - o'o rho - rho o'o (column stacking)."""
    d = op.shape[0]
    eye = np.eye(d, dtype=complex)
    nop = dagger(op) @ op
    return (2.0 * np.kron(op.conj(), op)
            - np.kron(eye, nop)
            - np.kron(nop.T, eye))


def dense_liouvillian(params: ModelParams, space: HilbertSpace) -> np.ndarray:
    """Dense generator L = -i (I (x) H - H^T (x) I) + (kappa/2) D[a] + (gamma/2) D[s-]."""
    eye = np.eye(space.dim, dtype=complex)
    commutators = [-1j * (np.kron(eye, h) - np.kron(h.T, eye)) for h in _hamiltonian_parts(space)]
    weights = (params.delta, params.delta_a, params.g, params.E, params.U)
    liou = (0.5 * params.kappa * dense_dissipator(annihilation_op(space))
            + 0.5 * params.gamma * dense_dissipator(qd_lowering_op(space)))
    for w, k in zip(weights, commutators):
        if w != 0.0:
            liou += w * k
    return liou


def dense_steady_state(params: ModelParams, space: HilbertSpace) -> np.ndarray:
    """vec(rho) from dense LU with trace-row replacement and one refinement step."""
    liou = dense_liouvillian(params, space)
    a = liou.copy()
    a[0, :] = trace_vector(space)
    b = np.zeros(a.shape[0], dtype=complex)
    b[0] = 1.0
    lu, piv = sla.lu_factor(a)
    x = sla.lu_solve((lu, piv), b)
    x += sla.lu_solve((lu, piv), b - a @ x)
    return x
