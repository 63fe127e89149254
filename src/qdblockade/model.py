"""Model parameters, the driven dot-cavity Hamiltonian, and its Lindblad generator.

Everything is dimensionless, measured in units of the dot decay rate (kept as
the explicit field ``gamma`` so absolute-rate users can carry their own unit).
In the frame rotating at the drive, the Hamiltonian assembled here is

    H = delta s+s- + delta_a a'a + g (s+ a + s- a') + E (a + a') + U (a^2 + a'^2),

with s+/- the dot raising/lowering operators, a the cavity mode, E the
one-photon drive and U the two-photon (parametric) drive inherited from the
pumped auxiliary mode; both drive amplitudes are taken real, their phases
absorbed into the field quadratures.  Dissipation enters as

    (kappa/2) (2 a rho a' - a'a rho - rho a'a)  +  (gamma/2) (...same with s-...),

i.e. plain photon decay at rate kappa and dot decay at rate gamma.

Superoperators use the column-stacking convention: vec() stacks columns, so
left multiplication is I (x) H and right multiplication is H^T (x) I.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .fock_algebra import HilbertSpace, annihilation_op, dagger, qd_lowering_op

__all__ = [
    "ModelParams",
    "PumpParams",
    "bimode_limit",
    "build_hamiltonian",
    "build_liouvillian",
    "effective_gain",
    "jc_limit",
    "trace_vector",
    "unvec",
    "vec",
]


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

    @property
    def delta_prime(self) -> complex:
        """Complex dot detuning delta - i gamma/2 absorbing the dot linewidth."""
        return self.delta - 0.5j * self.gamma

    @property
    def delta_a_prime(self) -> complex:
        """Complex cavity detuning delta_a - i kappa/2 absorbing the cavity linewidth."""
        return self.delta_a - 0.5j * self.kappa


@dataclass(frozen=True)
class PumpParams:
    """Raw pump-side quantities behind the effective two-photon amplitude."""

    F: float        # pump drive on the auxiliary mode
    chi: float      # intermode nonlinear coupling
    delta_b: float  # auxiliary-mode detuning
    kappa_b: float  # auxiliary-mode decay rate

    def __post_init__(self) -> None:
        if self.kappa_b <= 0:
            raise ValueError("kappa_b must be positive")


def effective_gain(pump: PumpParams) -> float:
    """Two-photon amplitude left after adiabatic elimination of the pumped mode.

    U = F chi / sqrt(delta_b^2 + kappa_b^2 / 4); far detuning or heavy damping
    of the auxiliary mode suppresses it monotonically.
    """
    return pump.F * pump.chi / math.sqrt(pump.delta_b**2 + 0.25 * pump.kappa_b**2)


def jc_limit(params: ModelParams) -> ModelParams:
    """Same model with the two-photon drive switched off (U = 0)."""
    return dataclasses.replace(params, U=0.0)


def bimode_limit(params: ModelParams) -> ModelParams:
    """Same model with the dot decoupled (g = 0)."""
    return dataclasses.replace(params, g=0.0)


@lru_cache(maxsize=None)
def _hamiltonian_parts(space: HilbertSpace) -> tuple[np.ndarray, ...]:
    """Parameter-free operator blocks; H is a real linear combination of them."""
    a = annihilation_op(space)
    ad = dagger(a)
    sm = qd_lowering_op(space)
    sd = dagger(sm)
    return (sd @ sm, ad @ a, sd @ a + sm @ ad, a + ad, a @ a + ad @ ad)


def build_hamiltonian(params: ModelParams, space: HilbertSpace) -> np.ndarray:
    """Dense drive-frame Hamiltonian on the composite space (Hermitian)."""
    qd, cav, coupling, drive, squeeze = _hamiltonian_parts(space)
    return (params.delta * qd
            + params.delta_a * cav
            + params.g * coupling
            + params.E * drive
            + params.U * squeeze)


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(rho).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec`."""
    v = np.asarray(v)
    d = math.isqrt(v.size)
    if d * d != v.size:
        raise ValueError(f"vector of length {v.size} is not a stacked square matrix")
    return v.reshape((d, d), order="F")


def trace_vector(space: HilbertSpace) -> np.ndarray:
    """Row vector t with t @ vec(rho) = Tr(rho)."""
    return vec(np.eye(space.dim, dtype=complex))


@np.errstate(over="ignore", invalid="ignore")
def build_liouvillian(params: ModelParams, space: HilbertSpace) -> sp.csc_array:
    """Sparse generator L (CSC) with d vec(rho)/dt = L vec(rho).

    L = -i (I (x) H - H^T (x) I) + (kappa/2) D[a] + (gamma/2) D[s-], with D[o]
    the superoperator of 2 o rho o' - o'o rho - rho o'o, entry for entry equal
    to the dense Kronecker sums.  vec(I) is a left null vector (the trace is
    preserved).  Parameters that overflow float64 leave inf or nan entries.
    """
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
    and on it the real values of D[a], D[s-] and Im(-i[H_k, .]) for each block
    H_k of :func:`_hamiltonian_parts`, one row each (4.5 MB at cutoff 40)."""
    # the ladder operators and every H_k are real, so each block is too
    eye = sp.eye_array(space.dim, format="csr")
    ladders = [sp.csr_array(op.real) for op in (annihilation_op(space), qd_lowering_op(space))]
    hams = [sp.csr_array(h.real) for h in _hamiltonian_parts(space)]
    blocks = [2.0 * sp.kron(o, o) - sp.kron(eye, o.T @ o) - sp.kron((o.T @ o).T, eye)
              for o in ladders] + [sp.kron(h.T, eye) - sp.kron(eye, h) for h in hams]
    union = sum(abs(b) for b in blocks).tocsc()
    # b + i union has an entry wherever any block does, and b as its exact real part
    values = np.array([(b + 1j * union).tocsc().data.real for b in blocks])
    for arr in (union.indices, union.indptr, values):
        arr.flags.writeable = False
    return union.indices, union.indptr, values
