"""Independent physics used to check the program's CSV output.

Nothing here imports qdblockade: each quantity is re-derived from the model
stated in the paper,

    H = delta s+s- + delta_a a'a + g (s+ a + s- a') + E (a + a') + U (a^2 + a'^2),

with cavity loss kappa and dot decay gamma, so a check that passes means two
separate implementations agree.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

SQRT2 = math.sqrt(2.0)

# refinement steps after the sparse direct solve; without them the reference
# misses the program by up to 1e-3 in g2 at dark points where n_a ~ 1e-6
REFINE_STEPS = 3


def _operators(cutoff: int):
    """Cavity annihilation and dot lowering, cavity-major basis |n> (x) |qd>."""
    a_fock = sp.diags(np.sqrt(np.arange(1.0, cutoff + 1)), 1, format="csr")
    s_dot = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    a = sp.kron(a_fock, sp.identity(2), format="csr").astype(complex)
    s = sp.kron(sp.identity(cutoff + 1), s_dot, format="csr").astype(complex)
    return a, s


def _generator(delta, delta_a, g, E, U, kappa, gamma, cutoff):
    a, s = _operators(cutoff)
    ad, sd = a.conj().T.tocsr(), s.conj().T.tocsr()
    h = (delta * (sd @ s) + delta_a * (ad @ a) + g * (sd @ a + s @ ad)
         + E * (a + ad) + U * (a @ a + ad @ ad))
    d = h.shape[0]
    eye = sp.identity(d, dtype=complex, format="csr")
    # column stacking: vec(A X B) = (B^T (x) A) vec(X)
    gen = -1j * (sp.kron(eye, h) - sp.kron(h.T, eye))
    for rate, c in ((kappa, a), (gamma, s)):
        cdc = (c.conj().T @ c).tocsr()
        gen = gen + rate * (sp.kron(c.conj(), c)
                            - 0.5 * sp.kron(eye, cdc) - 0.5 * sp.kron(cdc.T, eye))
    return gen.tocsr(), a, d


def steady_state(delta, delta_a, g, E, U, cutoff, kappa=1.0, gamma=1.0):
    """(g2(0), n_a) of the steady state, by sparse LU with iterative refinement.

    The first row of the generator is replaced by the trace functional so the
    system is regular with right-hand side e_0.
    """
    gen, a, d = _generator(delta, delta_a, g, E, U, kappa, gamma, cutoff)
    trace_row = np.zeros(d * d, dtype=complex)
    trace_row[:: d + 1] = 1.0
    m = gen.tolil()
    m[0, :] = trace_row
    m = m.tocsc()
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    lu = splu(m)
    x = lu.solve(rhs)
    for _ in range(REFINE_STEPS):
        x = x + lu.solve(rhs - m @ x)
    rho = x.reshape((d, d), order="F")
    n_op = (a.conj().T @ a).toarray()
    pair_op = (a.conj().T @ a.conj().T @ a @ a).toarray()
    n_a = float(np.trace(rho @ n_op).real)
    pair = float(np.trace(rho @ pair_op).real)
    g2 = pair / (n_a * n_a) if n_a >= 1e-12 else math.nan
    return g2, n_a


def weak_drive(delta, delta_a, g, E, U, kappa=1.0, gamma=1.0):
    """Vectorised one- and two-photon amplitudes (c1g, c2g) of the weak-drive ansatz.

    Eliminating c0e and c1e from the four stationary amplitude equations gives
    c1g = E dp / (g^2 - dp dap) and c2g = -(U s + E^2 (dp s + g^2) / (g^2 - dp dap))
    / (sqrt2 (dap s - g^2)), with dp = delta - i gamma/2, dap = delta_a - i kappa/2
    and s = dp + dap.
    """
    dp = np.asarray(delta, dtype=float) - 0.5j * gamma
    dap = np.asarray(delta_a, dtype=float) - 0.5j * kappa
    s = dp + dap
    one = g * g - dp * dap
    c1g = E * dp / one
    c2g = -(U * s + E * E * (dp * s + g * g) / one) / (SQRT2 * (dap * s - g * g))
    return c1g, c2g


def weak_drive_observables(delta, delta_a, g, E, U, kappa=1.0, gamma=1.0):
    """(g2, n_a) = (2 |c2g|^2 / |c1g|^4, |c1g|^2), elementwise."""
    c1g, c2g = weak_drive(delta, delta_a, g, E, U, kappa, gamma)
    n_a = np.abs(c1g) ** 2
    return 2.0 * np.abs(c2g) ** 2 / (n_a * n_a), n_a


def c2g_linear_solve(delta, delta_a, g, E, U, kappa=1.0, gamma=1.0) -> complex:
    """c2g from a direct solve of the 4x4 amplitude system (c0g pinned to 1)."""
    dp = delta - 0.5j * gamma
    dap = delta_a - 0.5j * kappa
    m = np.array([
        [dp, g, 0.0, 0.0],
        [g, dap, 0.0, 0.0],
        [E, 0.0, dap + dp, SQRT2 * g],
        [0.0, SQRT2 * E, SQRT2 * g, 2.0 * dap],
    ], dtype=complex)
    rhs = np.array([0.0, -E, 0.0, -SQRT2 * U], dtype=complex)
    return complex(np.linalg.solve(m, rhs)[3])
