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

import cmath
import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import SingularSystemError, UndefinedCorrelationError
from .model import ModelParams

__all__ = [
    "AmplitudeSet",
    "ConditionRoot",
    "amplitudes_closed_form",
    "amplitudes_linear_solve",
    "cpb_partner_detuning",
    "g2_cpb_min",
    "g2_weak_drive",
    "mean_photon_weak_drive",
    "ucpb_roots",
]

_SQRT2 = math.sqrt(2.0)

# condition numbers above this make the 4x4 solve meaningless in float64
_COND_LIMIT = 1e12


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


def _warn_if_hierarchy_broken(amps: AmplitudeSet) -> None:
    # amplitude hierarchy |c2g| <= |c1g| <= 1 is what makes the truncation valid
    if abs(amps.c2g) > abs(amps.c1g) or abs(amps.c1g) > 1.0:
        warnings.warn(
            "weak-drive amplitude hierarchy |c2g| <= |c1g| <= 1 violated; "
            "the truncated expansion is outside its domain here",
            RuntimeWarning,
            stacklevel=3,
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
    amps = AmplitudeSet(1.0 + 0.0j, c0e, c1g, c1e, c2g)
    _warn_if_hierarchy_broken(amps)
    return amps


def amplitudes_closed_form(params: ModelParams) -> AmplitudeSet:
    """Closed-form solution of the same truncated system.

    c1g = E delta' / (g^2 - delta' deltaA') and

            E^2 (g^2 + delta'(deltaA'+delta')) - U (delta' deltaA' - g^2)(deltaA'+delta')
    c2g = ----------------------------------------------------------------------------- ,
                sqrt2 (deltaA'(deltaA'+delta') - g^2)(delta' deltaA' - g^2)

    with c0e and c1e recovered by back-substitution.
    """
    dp = params.delta_prime
    dap = params.delta_a_prime
    g, E, U = params.g, params.E, params.U
    g2 = g * g
    s = dap + dp

    d1 = g2 - dp * dap
    d2 = dap * s - g2
    if d1 == 0:
        raise SingularSystemError("vanishing one-photon denominator g^2 - delta' deltaA'")
    if d2 == 0:
        raise SingularSystemError(
            "vanishing two-photon denominator deltaA'(deltaA'+delta') - g^2"
        )

    c1g = E * dp / d1
    num = E * E * (g2 + dp * s) - U * (-d1) * s
    c2g = num / (_SQRT2 * d2 * (-d1))

    if g == 0:
        c0e = 0.0 + 0.0j
    else:
        if dp == 0:
            raise SingularSystemError("vanishing dot denominator delta'")
        c0e = -g * c1g / dp
    if s == 0:
        raise SingularSystemError("vanishing combined denominator deltaA' + delta'")
    c1e = -(_SQRT2 * g * c2g + E * c0e) / s
    # the sum is non-finite when any amplitude is, or when they are too large to add
    if not cmath.isfinite(c0e + c1g + c1e + c2g):
        raise SingularSystemError("weak-drive amplitudes overflow float64")
    amps = AmplitudeSet(1.0 + 0.0j, c0e, c1g, c1e, c2g)
    _warn_if_hierarchy_broken(amps)
    return amps


def g2_weak_drive(params: ModelParams) -> float:
    """Equal-time second-order correlation 2|c2g|^2 / |c1g|^4 of the expansion."""
    amps = amplitudes_closed_form(params)
    one = float(abs(amps.c1g))  # a float raises on overflow where a NumPy scalar warns
    if one == 0.0:
        raise UndefinedCorrelationError("one-photon amplitude vanishes (is E = 0?)")
    try:
        return 2.0 * float(abs(amps.c2g)) ** 2 / one**4
    except ZeroDivisionError:
        raise UndefinedCorrelationError("|c1g|^4 underflows float64 (is E tiny?)") from None
    except OverflowError:
        raise SingularSystemError("weak-drive g2(0) overflows float64") from None


def mean_photon_weak_drive(params: ModelParams) -> float:
    """Mean photon number |c1g|^2 of the expansion; independent of U by construction."""
    c1g = amplitudes_closed_form(params).c1g
    try:
        return float(abs(c1g)) ** 2
    except OverflowError:
        raise SingularSystemError("weak-drive mean photon number overflows float64") from None


def g2_cpb_min(params: ModelParams) -> float:
    """Order-of-magnitude depth estimate on the CPB hyperbola.

    (gamma^2/g^2)(1 + gamma^2 U^2 / E^4): strong coupling deepens the trough,
    the two-photon drive lifts it once U ~ E^2/gamma.
    """
    if params.g <= 0:
        raise ValueError("CPB depth estimate needs g > 0")
    if params.E <= 0:
        raise ValueError("CPB depth estimate needs E > 0")
    r = params.gamma / params.g
    lift = params.gamma * params.U / (params.E * params.E)
    return r * r * (1.0 + lift * lift)


def cpb_partner_detuning(known_detuning: float, g: float) -> float:
    """Solve delta * delta_a = g^2 for the other detuning."""
    if known_detuning == 0.0:
        raise ValueError("hyperbola delta*delta_a = g^2 has no point at zero detuning")
    return g * g / known_detuning


def _c2g_magnitude(params: ModelParams, field: str, value: float) -> float:
    # scans deliberately visit hierarchy-breaking points; keep them quiet
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return abs(
            amplitudes_closed_form(dataclasses.replace(params, **{field: value})).c2g
        )


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
    if free not in ("delta", "delta_a"):
        raise ValueError(f"free axis must be 'delta' or 'delta_a', got {free!r}")
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError(f"empty search interval [{lo}, {hi}]")
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")

    npts = max(int(math.ceil((hi - lo) / grid_step)) + 1, 3)
    xs = np.linspace(lo, hi, npts)
    f = np.array([_c2g_magnitude(params, free, x) ** 2 for x in xs])

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
                                       _c2g_magnitude(params, free, cpb_value), "CPB"))

    return sorted(roots, key=lambda r: r.value)
