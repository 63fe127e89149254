"""Model parameters, the driven dot-cavity Hamiltonian, and its Lindblad generator.

Everything is dimensionless, measured in units of the dot decay rate (kept as
the explicit field ``gamma`` so absolute-rate users can carry their own unit).
In the frame rotating at the drive, the Hamiltonian is

    H = delta s+s- + delta_a a'a + g (s+ a + s- a') + E (a + a') + U (a^2 + a'^2),

with s+/- the dot raising/lowering operators, a the cavity mode, E the
one-photon drive and U the two-photon (parametric) drive inherited from the
pumped auxiliary mode; both drive amplitudes are taken real, their phases
absorbed into the field quadratures.  Dissipation enters as

    (kappa/2) (2 a rho a' - a'a rho - rho a'a)  +  (gamma/2) (...same with s-...),

i.e. plain photon decay at rate kappa and dot decay at rate gamma.

The composite basis ordering is fixed package-wide and dot-major,

    index(qd, n) = qd * (N + 1) + n,

with qd = 0 for the dot ground state |g>, qd = 1 for the excited state |e>,
and n = 0..N the Fock level of the cavity mode truncated at cutoff N.

Superoperators use the column-stacking convention: vec(rho) stacks the
columns of rho, so left multiplication is I (x) H and right multiplication is
H^T (x) I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "HilbertSpace",
    "ModelParams",
    "build_liouvillian",
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


@dataclass(frozen=True)
class ModelParams:
    """Scalar parameters of the driven dot-cavity model, in units of gamma."""

    delta: float = 0.0      # dot-drive detuning
    delta_a: float = 0.0    # cavity-drive detuning
    g: float = 0.0          # dot-cavity coupling
    E: float = 0.0          # one-photon drive amplitude
    U: float = 0.0          # two-photon drive amplitude
    kappa: float = 1.0      # cavity decay rate
    gamma: float = 1.0      # dot decay rate (the unit)

    def __post_init__(self) -> None:
        # one sum is cheaper than seven tests; it is finite when every field is
        if not math.isfinite(self.delta + self.delta_a + self.g + self.E + self.U
                             + self.kappa + self.gamma):
            bad = [k for k, v in vars(self).items() if not math.isfinite(v)]
            if bad:
                raise ValueError(f"parameters must be finite: {', '.join(bad)}")
        if self.kappa < 0 or self.gamma < 0:
            raise ValueError("decay rates kappa, gamma must be nonnegative")
        if self.g < 0 or self.E < 0 or self.U < 0:
            raise ValueError("g, E, U must be nonnegative")


@np.errstate(over="ignore", invalid="ignore")
def build_liouvillian(params: ModelParams, space: HilbertSpace) -> sp.csc_array:
    """Sparse generator L (CSC) with d vec(rho)/dt = L vec(rho).

    L = -i (I (x) H - H^T (x) I) + (kappa/2) D[a] + (gamma/2) D[s-], with D[o]
    the superoperator of 2 o rho o' - o'o rho - rho o'o, entry for entry equal
    to the dense Kronecker sums.  vec(I) is a left null vector (the trace is
    preserved).  Parameters that overflow float64 leave inf or nan entries.
    """
    import scipy.sparse as sp  # deferred: the weak-drive paths never load SciPy

    indices, indptr, (loss, decay, *commutators) = _generator_parts(space)
    weights = (params.delta, params.delta_a, params.g, params.E, params.U)
    data = np.zeros(indices.size, dtype=complex)
    data.real = 0.5 * params.kappa * loss + 0.5 * params.gamma * decay
    for w, k in zip(weights, commutators):
        if w != 0.0:
            data.imag += w * k
    n2 = space.dim * space.dim
    return sp.csc_array((data, indices, indptr), shape=(n2, n2))


@lru_cache(maxsize=None)
def _generator_parts(space: HilbertSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only CSC ``(indices, indptr)`` shared by every generator on ``space``,
    and on it the real values of D[a], D[s-] and Im(-i[H_k, .]) for the blocks
    H_k = s+s-, a'a, s+a + s-a', a + a', a^2 + a'^2 that delta .. U weigh in H,
    one row each (4.5 MB at cutoff 40)."""
    import scipy.sparse as sp

    # the ladders are real, so every H_k and every block is too
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
    for arr in (union.indices, union.indptr, values):
        arr.flags.writeable = False
    return union.indices, union.indptr, values
