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

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HilbertSpace",
    "ModelParams",
    "build_liouvillian",
]

# the largest Fock cutoff: the top of steady_state_grid's cutoff ladder and of
# the CLI's --cutoff
MAX_CUTOFF = 40


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
        _check_fields(**vars(self))


def _check_fields(delta, delta_a, g, E, U, kappa, gamma) -> None:
    """Raise ValueError unless every field is finite, and kappa, gamma, g, E and U
    are nonnegative: each field a number or an array, checked in every cell."""
    fields = dict(delta=delta, delta_a=delta_a, g=g, E=E, U=U, kappa=kappa, gamma=gamma)
    bad = [k for k, v in fields.items() if not np.isfinite(v).all()]
    if bad:
        raise ValueError(f"parameters must be finite: {', '.join(bad)}")
    if np.any(kappa < 0) or np.any(gamma < 0):
        raise ValueError("decay rates kappa, gamma must be nonnegative")
    if np.any(g < 0) or np.any(E < 0) or np.any(U < 0):
        raise ValueError("g, E, U must be nonnegative")


def build_liouvillian(params: ModelParams,
                      space: HilbertSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The generator L with d vec(rho)/dt = L vec(rho) as a COO triplet ``(rows,
    cols, data)`` of its dim^2 x dim^2 entries, in column-major order.

    L = -i (I (x) H - H^T (x) I) + (kappa/2) D[a] + (gamma/2) D[s-], with D[o]
    the superoperator of 2 o rho o' - o'o rho - rho o'o, entry for entry equal
    to the dense Kronecker sums.  vec(I) is a left null vector (the trace is
    preserved).  Parameters that overflow float64 leave inf or nan entries.
    """
    rows, cols, values = _generator_parts(space)
    return rows, cols, _generator_data(values, np.array([[*vars(params).values()]], dtype=float))[0]


@np.errstate(over="ignore", invalid="ignore")
def _generator_data(values: np.ndarray, fields: np.ndarray) -> np.ndarray:
    """The generator's entries for each row of ``fields``, a (cells, 7) array of the
    fields of :class:`ModelParams` in order, on the entries of ``values``: the
    seven real blocks of ``_generator_parts``, its entries in any order.

    Each entry is the same sum of products whichever cells share the call.  A
    weight that is 0 in every cell is skipped; one that is 0 in some adds 0 * k,
    which leaves every entry's bits as they are, since no entry of the
    imaginary part is ever -0.0.
    """
    loss, decay, *commutators = values
    *weights, kappa, gamma = fields.T[:, :, np.newaxis]  # each (cells, 1)
    data = np.zeros((len(fields), loss.size), dtype=complex)
    data.real = 0.5 * kappa * loss + 0.5 * gamma * decay
    for w, k in zip(weights, commutators):
        if w.any():
            data.imag += w * k
    return data


def _kron(left: tuple, right: tuple, n: int) -> tuple:
    """Kronecker product of two ``(rows, cols, values)`` triplets of n x n matrices:
    the outer product of their nonzeros."""
    (r1, c1, v1), (r2, c2, v2) = left, right
    return ((r1[:, None] * n + r2).ravel(), (c1[:, None] * n + c2).ravel(),
            (v1[:, None] * v2).ravel())


def _dot(left: tuple, right: tuple, n: int) -> tuple:
    """``left @ right`` for triplets with at most one entry per row and column,
    so each entry of the product is one product of entries."""
    at = np.full(n, -1)
    at[right[0]] = np.arange(right[0].size)
    k = at[left[1]]
    hit = k >= 0
    return left[0][hit], right[1][k[hit]], left[2][hit] * right[2][k[hit]]


def _generator_parts(space: HilbertSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(rows, cols)`` of every generator's entries on ``space``, in
    column-major order, and on them the real values of D[a], D[s-] and
    Im(-i[H_k, .]) for the blocks H_k = s+s-, a'a, s+a + s-a', a + a', a^2 + a'^2
    that delta .. U weigh in H, one row each.

    Every block is a short sum of Kronecker products of the identity and of
    ladder products, each held as a ``(rows, cols, values)`` triplet, and its
    terms are summed in the order 2 K - A - B (D[o]) or R - L (commutators), so
    the arrays equal those of the same sums in sparse matrix algebra.  Only the
    diagonal of [H_k, .] for H_k = s+s- or a'a cancels, at equal levels, and
    D[s-] or D[a] is nonzero there, so no entry of the union is 0 in every block.
    """
    fock, dim = space.fock_dim, space.dim

    def transpose(t: tuple) -> tuple:
        return t[1], t[0], t[2]

    def plus(x: tuple, y: tuple) -> tuple:  # of two triplets with disjoint entries
        return tuple(np.concatenate(pair) for pair in zip(x, y))

    # the ladders are real, so every H_k and every block is too
    n = np.arange(1, fock)
    cols = np.concatenate([n, n + fock])
    a = (cols - 1, cols, np.tile(np.sqrt(n.astype(float)), 2))
    sm = (np.arange(fock), np.arange(fock) + fock, np.ones(fock))
    eye = (np.arange(dim), np.arange(dim), np.ones(dim))
    ad, sd = transpose(a), transpose(sm)
    hams = (_dot(sd, sm, dim), _dot(ad, a, dim),
            plus(_dot(sd, a, dim), _dot(sm, ad, dim)), plus(a, ad),
            plus(_dot(a, a, dim), _dot(ad, ad, dim)))
    blocks = []
    for o in (a, sm):
        num = _dot(transpose(o), o, dim)
        blocks.append([(2.0, o, o), (-1.0, eye, num), (-1.0, transpose(num), eye)])
    blocks += [[(1.0, transpose(h), eye), (-1.0, eye, h)] for h in hams]

    n2 = dim * dim
    terms = [(b, coef, _kron(left, right, dim))
             for b, block in enumerate(blocks) for coef, left, right in block]
    union, at = np.unique(np.concatenate([c * n2 + r for _, _, (r, c, _) in terms]),
                          return_inverse=True)
    values = np.zeros((len(blocks), union.size))
    start = 0
    for b, coef, (_, _, v) in terms:  # a term has no repeated entry
        values[b, at[start:start + v.size]] += coef * v
        start += v.size
    cols, rows = np.divmod(union, n2)  # the keys col * n2 + row are column-major
    return rows, cols, values
