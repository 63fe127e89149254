"""Dense Liouvillian and dense LU steady state, kept as an oracle for the sparse solver,
and the generator's COO arrays built in sparse Kronecker algebra.

Every operator of the dense oracle comes from the explicit matrices of
:mod:`fock_helpers` and every n^2 x n^2 block is a dense ndarray built with
``np.kron``; nothing is taken from the package's own operator or generator
code.  The steady state replaces row 0 with the trace functional, factors
with ``scipy.linalg.lu_factor`` and takes one refinement step.  The package
solves the same system sparsely; these functions let the tests compare the two.
"""

import numpy as np
import scipy.sparse as sp
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


def kron_generator_parts(space: HilbertSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``model._generator_parts`` built from ``scipy.sparse`` Kronecker products.

    The ``(rows, cols)`` of the union of the seven blocks D[a], D[s-] and
    Im(-i[H_k, .]) (H_k = s+s-, a'a, s+a + s-a', a + a', a^2 + a'^2), in CSC's
    column-major order, and each block's real values on it.  SciPy's binops
    drop an entry that cancels to exactly 0 from its block.
    """
    eye = sp.eye_array(space.dim, format="csr")
    a = sp.kron(sp.eye_array(2), sp.diags_array(np.sqrt(np.arange(1.0, space.fock_dim)),
                                                offsets=1), format="csr")
    sm = sp.kron(sp.csr_array([[0.0, 1.0], [0.0, 0.0]]), sp.eye_array(space.fock_dim),
                 format="csr")
    ad, sd = a.T, sm.T
    hams = (sd @ sm, ad @ a, sd @ a + sm @ ad, a + ad, a @ a + ad @ ad)
    blocks = [2.0 * sp.kron(o, o) - sp.kron(eye, o.T @ o) - sp.kron((o.T @ o).T, eye)
              for o in (a, sm)] + [sp.kron(h.T, eye) - sp.kron(eye, h) for h in hams]
    union = sum(abs(b) for b in blocks).tocsc()
    # b + i union has an entry wherever any block does, and b as its exact real part
    values = np.array([(b + 1j * union).tocsc().data.real for b in blocks])
    cols = np.repeat(np.arange(union.shape[1]), np.diff(union.indptr))
    return union.indices, cols, values
