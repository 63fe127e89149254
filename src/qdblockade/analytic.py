"""Weak-driving amplitude theory: closed forms, g2(0), and blockade conditions.

For E, U much smaller than the linewidths the steady state is captured by the
truncated expansion |psi> = c0g|0,g> + c0e|0,e> + c1g|1,g> + c1e|1,e> +
c2g|2,g> with c0g ~ 1.  Complex detunings delta' = delta - i gamma/2 and
deltaA' = delta_a - i kappa/2 absorb the linewidths.  Antibunching then reads

    g2(0) ~ 2 |c2g|^2 / |c1g|^4,

so conventional blockade (CPB) means suppressing c2g through level-structure
anharmonicity (hyperbola delta * delta_a = g^2) while unconventional blockade
(UCPB) means driving c2g to an interference zero between the one-photon
ladder E^2 path and the direct two-photon U path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import SingularSystemError
from .model import ModelParams

if TYPE_CHECKING:
    from numpy.polynomial import Polynomial

__all__ = [
    "ConditionRoot",
    "WeakDriveGrid",
    "cpb_partner_detuning",
    "failure_error",
    "ucpb_roots",
    "weak_drive_grid",
]

_SQRT2 = math.sqrt(2.0)

# a minimum of |c2g| must lie this far below its background, relatively:
# where |c2g| does not depend on the scanned detuning (g = 0 along delta),
# rounding alone makes dips of ~1e-14, while real interference nulls are
# >= 2e-5 deep on the paper's cuts
_MIN_DIP = 1e-9

# the SingularSystemError messages of weak_drive_grid's failures, indexed by
# their code (0: none), in the order its checks are made: the amplitudes',
# then n_a's, then g2's
_FAILURES = (
    None,
    "vanishing one-photon denominator g^2 - delta' deltaA'",
    "vanishing two-photon denominator deltaA'(deltaA'+delta') - g^2",
    "vanishing dot denominator delta'",
    "vanishing combined denominator deltaA' + delta'",
    "weak-drive amplitudes overflow float64",
    "weak-drive mean photon number overflows float64",
    "weak-drive g2(0) overflows float64",
)


@dataclass(frozen=True)
class ConditionRoot:
    """One optimal-blockade root found along a detuning axis.

    ``residual`` is |c2g| at the root; for UCPB roots it is a local minimum
    of |c2g| along the solved variable, for CPB roots it is just the value on
    the hyperbola.  ``g2`` is the weak-drive g2(0) there, nan where it fails.
    """

    variable: str
    value: float
    residual: float
    kind: str  # "CPB" | "UCPB"
    g2: float


@dataclass(frozen=True)
class WeakDriveGrid:
    """The weak-drive closed form evaluated cell by cell on broadcast parameter arrays.

    ``g2`` is 2 |c2g|^2 / |c1g|^4 and ``n_a`` is |c1g|^2.  Each ``*_failure``
    array is 0 where that quantity did not fail and otherwise the code of the
    first check it failed (:func:`failure_error` gives the exception); a
    failed cell holds nan.  ``n_a_failure`` and ``g2_failure`` include the
    amplitudes' failures.  Where |c1g|^4 is 0, g2 is undefined, as the exact
    g2 of a dark cavity is: it reads nan with code 0.  The hierarchy
    |c2g| <= |c1g| <= 1 that makes the truncation valid is not checked:
    callers read it off ``c1g`` and ``c2g``.
    """

    c0e: np.ndarray
    c1g: np.ndarray
    c1e: np.ndarray
    c2g: np.ndarray
    n_a: np.ndarray
    g2: np.ndarray
    amplitudes_failure: np.ndarray
    n_a_failure: np.ndarray
    g2_failure: np.ndarray


def failure_error(code: int) -> SingularSystemError:
    """The exception for a failure code of :class:`WeakDriveGrid`."""
    return SingularSystemError(_FAILURES[code])


class _Complex:
    """A complex array as a pair of float arrays, with CPython's complex rounding.

    NumPy's complex multiply fuses multiply-adds and its divide scales by a
    reciprocal.  Near the interference zero of c2g, where its numerator
    cancels, those roundings put g2 thousands of ulp away from the same
    formula in Python complex arithmetic (4643 ulp on the paper's map).  On
    the parts, each sum, product, quotient (Smith's method, as CPython's
    ``_Py_c_quot``) and modulus (``hypot``) rounds as CPython's does, and a
    real operand x counts as x + 0j.
    """

    __slots__ = ("re", "im")
    __array_ufunc__ = None  # ndarray (op) _Complex defers to the reflected method

    def __init__(self, re, im=0.0):
        self.re, self.im = re, im

    @staticmethod
    def _of(x) -> _Complex:
        return x if isinstance(x, _Complex) else _Complex(x)

    def __neg__(self) -> _Complex:
        return _Complex(-self.re, -self.im)

    def __add__(self, other) -> _Complex:
        o = _Complex._of(other)
        return _Complex(self.re + o.re, self.im + o.im)

    def __sub__(self, other) -> _Complex:
        o = _Complex._of(other)
        return _Complex(self.re - o.re, self.im - o.im)

    def __rsub__(self, other) -> _Complex:
        return _Complex._of(other) - self

    def __mul__(self, other) -> _Complex:
        o = _Complex._of(other)
        return _Complex(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    # IEEE sums and products commute, so the reflected forms round the same
    __radd__ = __add__
    __rmul__ = __mul__

    def __truediv__(self, other) -> _Complex:
        o = _Complex._of(other)
        by_re = np.abs(o.re) >= np.abs(o.im)
        ratio = np.where(by_re, o.im / o.re, o.re / o.im)
        denom = np.where(by_re, o.re + o.im * ratio, o.re * ratio + o.im)
        re = np.where(by_re, self.re + self.im * ratio, self.re * ratio + self.im)
        im = np.where(by_re, self.im - self.re * ratio, self.im * ratio - self.re)
        return _Complex(re / denom, im / denom)

    def is_zero(self) -> np.ndarray:
        return (self.re == 0) & (self.im == 0)

    def modulus(self) -> np.ndarray:
        return np.hypot(self.re, self.im)

    def or_nan(self, keep: np.ndarray) -> np.ndarray:
        """Complex ndarray of this value where ``keep``, nan elsewhere."""
        z = np.array(np.where(keep, self.re, np.nan), dtype=complex)
        z.imag = np.where(keep, self.im, np.nan)
        return z


def _first_failure(*checks: tuple[int, np.ndarray]) -> np.ndarray:
    """Per cell, the code of the first failed check in ``(code, failed)`` order, or 0."""
    code = np.asarray(0)
    for c, failed in reversed(checks):
        code = np.where(failed, c, code)
    return code


def _c2g_parts(dp, dap, gg, E, U) -> tuple:
    """s, d1, d2 and c2g's numerator and denominator, as _Complex arrays or polynomials."""
    s = dap + dp
    d1 = gg - dp * dap
    d2 = dap * s - gg
    num = E * E * (gg + dp * s) - U * (-d1) * s
    return s, d1, d2, num, _SQRT2 * d2 * (-d1)


@np.errstate(all="ignore")
def weak_drive_grid(delta=0.0, delta_a=0.0, g=0.0, E=0.0, U=0.0, kappa=1.0,
                    gamma=1.0) -> WeakDriveGrid:
    """Closed-form amplitudes, n_a and g2(0) for every cell of broadcast parameters.

    The arguments are the fields of :class:`ModelParams`, each a number or an
    array; they are not validated.  With delta' = delta - i gamma/2 and
    deltaA' = delta_a - i kappa/2,

    c1g = E delta' / (g^2 - delta' deltaA') and

            E^2 (g^2 + delta'(deltaA'+delta')) - U (delta' deltaA' - g^2)(deltaA'+delta')
    c2g = ----------------------------------------------------------------------------- ,
                sqrt2 (deltaA'(deltaA'+delta') - g^2)(delta' deltaA' - g^2)

    with c0e and c1e recovered by back-substitution.  A zero denominator,
    non-finite amplitudes and an overflowing n_a or g2 are failures of their
    cell, never warnings.  An undefined g2 (|c1g| zero, or |c1g|^4 underflowing
    to zero) is nan with g2 code 0; |c2g|^2 overflowing fails first unless c1g
    is zero.
    """
    delta, delta_a, g, E, U, kappa, gamma = (
        np.asarray(x, dtype=float) for x in (delta, delta_a, g, E, U, kappa, gamma))
    half_i = _Complex(0.0, 0.5)
    dp = delta - half_i * gamma
    s, d1, d2, num, den = _c2g_parts(dp, delta_a - half_i * kappa, g * g, E, U)
    c1g = E * dp / d1
    c2g = num / den
    c0e = -g * c1g / dp
    c0e = _Complex(np.where(g == 0, 0.0, c0e.re), np.where(g == 0, 0.0, c0e.im))
    c1e = -(_SQRT2 * g * c2g + E * c0e) / s
    # the sum is non-finite when any amplitude is, or when they are too large to add
    total = c0e + c1g + c1e + c2g
    # every cell depends on every parameter through it, so the codes have the full shape
    amplitudes_failure = _first_failure(
        (1, d1.is_zero()), (2, d2.is_zero()), (3, (g != 0) & dp.is_zero()), (4, s.is_zero()),
        (5, ~(np.isfinite(total.re) & np.isfinite(total.im))))
    fine = amplitudes_failure == 0

    one = c1g.modulus()
    n_a = one**2
    n_a_failure = np.where(fine, np.where(np.isinf(n_a), 6, 0), amplitudes_failure)
    two = c2g.modulus() ** 2
    four = one**4
    # g2 is undefined where c1g = 0, before anything else; where it is not,
    # |c2g|^2 overflowing fails before |c1g|^4 underflowing makes g2 undefined
    g2_failure = np.where(fine, np.where((one != 0) & (np.isinf(two) | np.isinf(four)), 7, 0),
                          amplitudes_failure)

    return WeakDriveGrid(*(c.or_nan(fine) for c in (c0e, c1g, c1e, c2g)),
                         np.where(n_a_failure == 0, n_a, np.nan),
                         np.where((g2_failure == 0) & (four != 0), 2.0 * two / four, np.nan),
                         amplitudes_failure, n_a_failure, g2_failure)


def cpb_partner_detuning(known_detuning: float, g: float) -> float:
    """Solve delta * delta_a = g^2 for the other detuning."""
    if known_detuning == 0.0:
        raise ValueError("hyperbola delta*delta_a = g^2 has no point at zero detuning")
    return g * g / known_detuning


def _unit(f: Polynomial) -> Polynomial:
    """``f`` with its largest coefficient part at 1, divided part by part: NumPy's
    complex divide takes a reciprocal, which overflows for a subnormal divisor."""
    m = np.abs([f.coef.real, f.coef.imag]).max() or 1.0
    return type(f)(f.coef.real / m + 1j * (f.coef.imag / m))


def _roots(f: Polynomial) -> np.ndarray:
    """The roots of ``f`` that can lie near [-1, 1]: leading coefficients below the
    rounding of the largest go first, as their quotients could overflow."""
    return f.trim(np.finfo(float).eps * np.abs(f.coef).max()).roots()


def _real_zeros(f: Polynomial) -> list[float]:
    """The zeros of ``f`` on t in [-1, 1]; -1 alone where ``f`` vanishes everywhere.

    A candidate t, a root's real part or -1, counts where |f(t)| is below 1e-12 of
    the size of f's terms there: rounding leaves ~1e-16, while a lossy system's
    poles lie a linewidth off the real axis."""
    t = np.clip(np.append(_roots(f).real, -1.0), -1.0, 1.0)
    size = type(f)(np.abs(f.coef))(np.abs(t))
    return t[np.abs(f(t)) <= 1e-12 * size].tolist()


# overflowing coefficients are refused below, and an overflowing value fails
# every test a root must pass
@np.errstate(all="ignore")
def ucpb_roots(params: ModelParams, free: str,
               interval: tuple[float, float]) -> list[ConditionRoot]:
    """Optimal-blockade roots along one detuning axis.

    Along ``free``, c2g = N / D with N and D polynomials (:func:`weak_drive_grid`),
    so the minima of |c2g|^2 = P / Q in ``interval`` are real roots of P'Q - PQ'.
    A minimum counts only if it is a genuine dip: |c2g| below its value 5 gamma
    away on both sides by more than the relative depth ``_MIN_DIP``.  A dip within
    0.5 gamma of the CPB hyperbola (against the other, fixed detuning) is labeled
    CPB.  Otherwise it counts as UCPB only if it actually blocks: predicted g2(0) <
    0.5 there (the usual sub-Poissonian bar; a c2g dip where the one-photon
    amplitude dies even faster is not blockade).  The hyperbola point itself is
    appended as a CPB root when it falls inside the interval, so the result covers
    both blockade flavors.  Failures are decided first, for the whole interval:
    non-finite N or D, or D = 0, raise failure 5, and a real zero of a denominator
    factor raises that factor's failure, the lowest zero first.  An ``interval``
    that is empty, or whose ends or width are not finite, raises ValueError.
    """
    from numpy.polynomial import Polynomial

    if free not in ("delta", "delta_a"):
        raise ValueError(f"free axis must be 'delta' or 'delta_a', got {free!r}")
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError(f"empty search interval [{lo}, {hi}]")
    # finite only when both ends are, and their distance fits in float64
    if not math.isfinite(hi - lo):
        raise ValueError(f"search interval [{lo}, {hi}] needs finite ends a finite "
                         "distance apart")

    t = Polynomial([lo / 2 + hi / 2, hi / 2 - lo / 2])  # the free detuning, t on [-1, 1]
    x = {"delta": Polynomial([params.delta]), "delta_a": Polynomial([params.delta_a]), free: t}
    dp = x["delta"] - 0.5j * params.gamma
    s, d1, d2, num, den = _c2g_parts(dp, x["delta_a"] - 0.5j * params.kappa,
                                     params.g * params.g, params.E, params.U)
    # c2g is finite nowhere when D's coefficients overflow or all underflow to 0
    if not (np.isfinite(np.concatenate([num.coef, den.coef])).all() and den.coef.any()):
        raise failure_error(5)
    # at unit scale, squaring N and D and evaluating any of these cannot overflow
    dp, s, d1, d2, num, den = map(_unit, (dp, s, d1, d2, num, den))
    factors = [(1, d1), (2, d2), (4, s)] + ([(3, dp)] if params.g != 0 else [])
    zeros = [(z, code) for code, f in factors for z in _real_zeros(f)]
    if zeros:
        raise failure_error(min(zeros)[1])

    P, Q = (Polynomial(f.coef.real) ** 2 + Polynomial(f.coef.imag) ** 2 for f in (num, den))
    slope = P.deriv() * Q - P * Q.deriv()  # (P / Q)' Q^2
    ts = _roots(slope)
    ts = ts.real[(ts.imag == 0) & (np.abs(ts.real) < 1.0)]
    ts = ts[slope.deriv()(ts) > 0]  # minima: the slope turns from - to +
    # cancellation in the slope's coefficients leaves its roots up to ~1e-8 off;
    # one Newton step on the slope written through N and D takes them to ~1e-12
    n, d = num(ts), den(ts)
    ts = ts - 2 * ((num.deriv()(ts) * n.conj()).real * abs(d) ** 2
                   - abs(n) ** 2 * (den.deriv()(ts) * d.conj()).real) / slope.deriv()(ts)
    xs = t(np.sort(ts[np.abs(ts) < 1.0]))

    gamma = params.gamma if params.gamma > 0 else 1.0
    other = params.delta_a if free == "delta" else params.delta
    cpb_value: float | None = None
    if params.g > 0 and other != 0.0:
        cpb_value = cpb_partner_detuning(other, params.g)
    hyperbola = [cpb_value] if cpb_value is not None and lo <= cpb_value <= hi else []
    # one grid call: the candidates, their background 5 gamma to both sides, the hyperbola
    k = xs.size
    grid = weak_drive_grid(**{**vars(params), free: np.concatenate(
        [xs, xs - 5.0 * gamma, xs + 5.0 * gamma, hyperbola])})
    c2g = np.abs(grid.c2g)
    dips = c2g[:k] < (1.0 - _MIN_DIP) * np.minimum(c2g[k:2 * k], c2g[2 * k:3 * k])

    g2 = grid.g2.tolist()
    roots: list[ConditionRoot] = []
    for i in np.flatnonzero(dips).tolist():
        x_min, residual = float(xs[i]), float(c2g[i])
        if cpb_value is not None and abs(x_min - cpb_value) <= 0.5 * gamma:
            roots.append(ConditionRoot(free, x_min, residual, "CPB", g2[i]))
            continue
        if grid.g2_failure[i]:
            raise failure_error(int(grid.g2_failure[i]))
        # an undriven one-photon sector leaves g2 undefined (nan): nothing to compare against
        if not g2[i] >= 0.5:
            roots.append(ConditionRoot(free, x_min, residual, "UCPB", g2[i]))

    if hyperbola and not any(r.kind == "CPB" and abs(r.value - cpb_value) <= 0.5 * gamma
                             for r in roots):
        roots.append(ConditionRoot(free, cpb_value, float(c2g[-1]), "CPB", g2[-1]))
    return sorted(roots, key=lambda r: r.value)
