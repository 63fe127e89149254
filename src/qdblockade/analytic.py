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

import dataclasses
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BlockadeError, SingularSystemError, UndefinedCorrelationError
from .model import ModelParams

__all__ = [
    "AmplitudeSet",
    "ConditionRoot",
    "WeakDriveGrid",
    "amplitudes_closed_form",
    "amplitudes_linear_solve",
    "cpb_partner_detuning",
    "failure_error",
    "g2_weak_drive",
    "mean_photon_weak_drive",
    "ucpb_roots",
    "weak_drive_grid",
]

_SQRT2 = math.sqrt(2.0)

# condition numbers above this make the 4x4 solve meaningless in float64
_COND_LIMIT = 1e12

# the failures of weak_drive_grid, indexed by their code (0: none), in the
# order its checks are made: the amplitudes', then n_a's, then g2's
_FAILURES = (
    None,
    (SingularSystemError, "vanishing one-photon denominator g^2 - delta' deltaA'"),
    (SingularSystemError, "vanishing two-photon denominator deltaA'(deltaA'+delta') - g^2"),
    (SingularSystemError, "vanishing dot denominator delta'"),
    (SingularSystemError, "vanishing combined denominator deltaA' + delta'"),
    (SingularSystemError, "weak-drive amplitudes overflow float64"),
    (SingularSystemError, "weak-drive mean photon number overflows float64"),
    (UndefinedCorrelationError, "one-photon amplitude vanishes (is E = 0?)"),
    (SingularSystemError, "weak-drive g2(0) overflows float64"),
    (UndefinedCorrelationError, "|c1g|^4 underflows float64 (is E tiny?)"),
)


@dataclass(frozen=True)
class AmplitudeSet:
    """Stationary amplitudes of the truncated weak-drive expansion (c0g = 1)."""

    c0g: complex
    c0e: complex
    c1g: complex
    c1e: complex
    c2g: complex


@dataclass(frozen=True)
class ConditionRoot:
    """One optimal-blockade root found along a detuning axis.

    ``residual`` is |c2g| at the root; for UCPB roots it is a local minimum
    of |c2g| along the solved variable, for CPB roots it is just the value on
    the hyperbola.
    """

    variable: str
    value: float
    residual: float
    kind: str  # "CPB" | "UCPB"


@dataclass(frozen=True)
class WeakDriveGrid:
    """The weak-drive closed form evaluated cell by cell on broadcast parameter arrays.

    ``g2`` is 2 |c2g|^2 / |c1g|^4 and ``n_a`` is |c1g|^2.  Each ``*_failure``
    array is 0 where that quantity is defined and otherwise the code of the
    first check it failed, in the order the scalar entry points make them
    (:func:`failure_error` gives the exception); a failed cell holds nan.
    ``n_a_failure`` and ``g2_failure`` include the amplitudes' failures.
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


def failure_error(code: int) -> BlockadeError:
    """The exception for a failure code of :class:`WeakDriveGrid`."""
    kind, message = _FAILURES[code]
    return kind(message)


def _raise_first(failure: np.ndarray) -> None:
    bad = np.flatnonzero(failure)
    if bad.size:
        raise failure_error(int(failure.flat[bad[0]]))


def _warn_if_hierarchy_broken(c1g, c2g) -> None:
    # amplitude hierarchy |c2g| <= |c1g| <= 1 is what makes the truncation valid
    with np.errstate(over="ignore"):
        one, two = np.abs(c1g), np.abs(c2g)
    if two > one or one > 1.0:
        # report the first caller outside this module, whichever entry point it used
        frame, level = sys._getframe(), 1
        while frame is not None and frame.f_code.co_filename == __file__:
            frame, level = frame.f_back, level + 1
        warnings.warn(
            "weak-drive amplitude hierarchy |c2g| <= |c1g| <= 1 violated; "
            "the truncated expansion is outside its domain here",
            RuntimeWarning,
            stacklevel=level,
        )


def _system(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    dp = params.delta_prime
    dap = params.delta_a_prime
    g, E, U = params.g, params.E, params.U
    a = np.array([
        [dp, g, 0.0, 0.0],
        [g, dap, 0.0, 0.0],
        [E, 0.0, dap + dp, _SQRT2 * g],
        [0.0, _SQRT2 * E, _SQRT2 * g, 2.0 * dap],
    ], dtype=complex)
    b = np.array([0.0, -E, 0.0, -_SQRT2 * U], dtype=complex)
    return a, b


def amplitudes_linear_solve(params: ModelParams) -> AmplitudeSet:
    """Stationary amplitudes from the truncated amplitude equations.

    With the ground amplitude pinned to 1, the stationary conditions for
    (c0e, c1g, c1e, c2g) form the 4x4 linear system

        delta'*c0e + g*c1g                              = 0
        g*c0e + deltaA'*c1g                             = -E
        E*c0e + (deltaA'+delta')*c1e + sqrt2*g*c2g      = 0
        sqrt2*E*c1g + sqrt2*g*c1e + 2*deltaA'*c2g       = -sqrt2*U

    solved directly.  This is the reference oracle for the closed forms.
    """
    a, b = _system(params)
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularSystemError(
            f"weak-drive system is numerically singular (condition number {cond:.3e})"
        )
    c0e, c1g, c1e, c2g = np.linalg.solve(a, b)
    _warn_if_hierarchy_broken(c1g, c2g)
    return AmplitudeSet(1.0 + 0.0j, c0e, c1g, c1e, c2g)


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
    non-finite amplitudes, an overflowing n_a or g2 and an undefined g2
    (|c1g| or |c1g|^4 zero) are failures of their cell, never warnings.
    """
    delta, delta_a, g, E, U, kappa, gamma = (
        np.asarray(x, dtype=float) for x in (delta, delta_a, g, E, U, kappa, gamma))
    half_i = _Complex(0.0, 0.5)
    dp = delta - half_i * gamma
    dap = delta_a - half_i * kappa
    gg = g * g
    s = dap + dp
    d1 = gg - dp * dap
    d2 = dap * s - gg
    c1g = E * dp / d1
    num = E * E * (gg + dp * s) - U * (-d1) * s
    c2g = num / (_SQRT2 * d2 * (-d1))
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
    g2 = 2.0 * two / four
    # |c2g|^2 overflowing is met before |c1g|^4 underflowing, as in the scalar order
    g2_failure = np.where(
        fine, _first_failure((7, one == 0), (8, np.isinf(two) | np.isinf(four)), (9, four == 0)),
        amplitudes_failure)

    return WeakDriveGrid(*(c.or_nan(fine) for c in (c0e, c1g, c1e, c2g)),
                         np.where(n_a_failure == 0, n_a, np.nan),
                         np.where(g2_failure == 0, g2, np.nan),
                         amplitudes_failure, n_a_failure, g2_failure)


def _closed_form_at(params: ModelParams) -> WeakDriveGrid:
    # shape (1,), not 0-d: NumPy's scalar loops round differently from its
    # array loops, and one point must give the bits of its cell in a grid
    grid = weak_drive_grid(**{k: [v] for k, v in vars(params).items()})
    _raise_first(grid.amplitudes_failure)
    _warn_if_hierarchy_broken(grid.c1g, grid.c2g)
    return grid


def amplitudes_closed_form(params: ModelParams) -> AmplitudeSet:
    """Closed-form solution of the same truncated system (see :func:`weak_drive_grid`)."""
    grid = _closed_form_at(params)
    return AmplitudeSet(1.0 + 0.0j, *(c.item() for c in
                                      (grid.c0e, grid.c1g, grid.c1e, grid.c2g)))


def g2_weak_drive(params: ModelParams) -> float:
    """Equal-time second-order correlation 2|c2g|^2 / |c1g|^4 of the expansion."""
    grid = _closed_form_at(params)
    _raise_first(grid.g2_failure)
    return grid.g2.item()


def mean_photon_weak_drive(params: ModelParams) -> float:
    """Mean photon number |c1g|^2 of the expansion; independent of U by construction."""
    grid = _closed_form_at(params)
    _raise_first(grid.n_a_failure)
    return grid.n_a.item()


def cpb_partner_detuning(known_detuning: float, g: float) -> float:
    """Solve delta * delta_a = g^2 for the other detuning."""
    if known_detuning == 0.0:
        raise ValueError("hyperbola delta*delta_a = g^2 has no point at zero detuning")
    return g * g / known_detuning


def _c2g_magnitude(params: ModelParams, field: str, value) -> np.ndarray:
    """|c2g| with ``field`` set to ``value``, a number or an array of them."""
    grid = weak_drive_grid(**{**vars(params), field: value})
    _raise_first(grid.amplitudes_failure)
    return np.abs(grid.c2g)


def ucpb_roots(params: ModelParams, free: str,
               interval: tuple[float, float], grid_step: float = 0.25) -> list[ConditionRoot]:
    """Optimal-blockade roots along one detuning axis.

    Scans |c2g|^2 over ``free`` in ``interval`` on a ``grid_step`` grid, then
    sharpens every interior local minimum by bounded scalar minimization.  A
    minimum within 0.5 gamma of the CPB hyperbola (against the other, fixed
    detuning) is labeled CPB.  Otherwise it counts as UCPB only if it is a
    genuine interference null that actually blocks: |c2g| strictly below its
    value 5 gamma away on both sides, and predicted g2(0) < 0.5 there (the
    usual sub-Poissonian bar; a c2g dip where the one-photon amplitude dies
    even faster is not blockade).  The hyperbola point itself is appended as
    a CPB root when it falls inside the interval, so the result covers both
    blockade flavors.
    """
    from scipy.optimize import minimize_scalar  # only this scan needs SciPy

    if free not in ("delta", "delta_a"):
        raise ValueError(f"free axis must be 'delta' or 'delta_a', got {free!r}")
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError(f"empty search interval [{lo}, {hi}]")
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")

    npts = max(int(math.ceil((hi - lo) / grid_step)) + 1, 3)
    xs = np.linspace(lo, hi, npts)
    f = _c2g_magnitude(params, free, xs) ** 2

    gamma = params.gamma if params.gamma > 0 else 1.0
    other = params.delta_a if free == "delta" else params.delta
    cpb_value: float | None = None
    if params.g > 0 and other != 0.0:
        cpb_value = cpb_partner_detuning(other, params.g)

    roots: list[ConditionRoot] = []
    for i in range(1, npts - 1):
        if not (f[i] < f[i - 1] and f[i] < f[i + 1]):
            continue
        res = minimize_scalar(lambda x: _c2g_magnitude(params, free, x) ** 2,
                              bounds=(xs[i - 1], xs[i + 1]), method="bounded",
                              options={"xatol": 1e-4 * gamma})
        x_min = float(res.x)
        residual = math.sqrt(float(res.fun))
        if cpb_value is not None and abs(x_min - cpb_value) <= 0.5 * gamma:
            roots.append(ConditionRoot(free, x_min, residual, "CPB"))
            continue
        background = min(_c2g_magnitude(params, free, x_min - 5.0 * gamma),
                         _c2g_magnitude(params, free, x_min + 5.0 * gamma))
        if residual >= background:
            continue
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                blocks = g2_weak_drive(
                    dataclasses.replace(params, **{free: x_min})) < 0.5
        except UndefinedCorrelationError:
            blocks = True  # undriven one-photon sector: nothing to compare against
        if blocks:
            roots.append(ConditionRoot(free, x_min, residual, "UCPB"))

    if cpb_value is not None and lo <= cpb_value <= hi:
        if not any(r.kind == "CPB" and abs(r.value - cpb_value) <= 0.5 * gamma
                   for r in roots):
            roots.append(ConditionRoot(free, cpb_value,
                                       float(_c2g_magnitude(params, free, cpb_value)), "CPB"))

    return sorted(roots, key=lambda r: r.value)
