"""The weak-drive theory one point at a time, kept as an oracle for the array path.

``amplitudes``, ``g2_weak_drive`` and ``mean_photon_weak_drive`` are the
scalar closed form the package evaluated before it took whole grids as
arrays: Python complex arithmetic, each failure raised where it is first
met.  They raise the package's exception types with the same messages;
``g2_weak_drive`` returns nan where g2 is undefined.
``amplitudes_linear_solve`` solves the truncated amplitude equations
directly, with no closed form at all.  Both amplitude functions return
``(c0e, c1g, c1e, c2g)``; nothing here warns.
"""

import cmath
import math

import numpy as np

from qdblockade import ModelParams, SingularSystemError

_SQRT2 = math.sqrt(2.0)

# condition numbers above this make the 4x4 solve meaningless in float64
_COND_LIMIT = 1e12


def _complex_detunings(params: ModelParams) -> tuple[complex, complex]:
    """delta' = delta - i gamma/2 and deltaA' = delta_a - i kappa/2."""
    return params.delta - 0.5j * params.gamma, params.delta_a - 0.5j * params.kappa


def amplitudes(params: ModelParams) -> tuple[complex, complex, complex, complex]:
    dp, dap = _complex_detunings(params)
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
    return c0e, c1g, c1e, c2g


def g2_weak_drive(params: ModelParams) -> float:
    c1g, c2g = amplitudes(params)[1::2]
    one = float(abs(c1g))  # a float raises on overflow where a NumPy scalar warns
    if one == 0.0:  # the one-photon amplitude vanishes (is E = 0?)
        return math.nan
    try:
        return 2.0 * float(abs(c2g)) ** 2 / one**4
    except ZeroDivisionError:  # |c1g|^4 underflows float64 (is E tiny?)
        return math.nan
    except OverflowError:
        raise SingularSystemError("weak-drive g2(0) overflows float64") from None


def mean_photon_weak_drive(params: ModelParams) -> float:
    c1g = amplitudes(params)[1]
    try:
        return float(abs(c1g)) ** 2
    except OverflowError:
        raise SingularSystemError("weak-drive mean photon number overflows float64") from None


def _system(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    dp, dap = _complex_detunings(params)
    g, E, U = params.g, params.E, params.U
    a = np.array([
        [dp, g, 0.0, 0.0],
        [g, dap, 0.0, 0.0],
        [E, 0.0, dap + dp, _SQRT2 * g],
        [0.0, _SQRT2 * E, _SQRT2 * g, 2.0 * dap],
    ], dtype=complex)
    b = np.array([0.0, -E, 0.0, -_SQRT2 * U], dtype=complex)
    return a, b


def amplitudes_linear_solve(params: ModelParams) -> tuple[complex, complex, complex, complex]:
    """Stationary amplitudes from the truncated amplitude equations.

    With the ground amplitude pinned to 1, the stationary conditions for
    (c0e, c1g, c1e, c2g) form the 4x4 linear system

        delta'*c0e + g*c1g                              = 0
        g*c0e + deltaA'*c1g                             = -E
        E*c0e + (deltaA'+delta')*c1e + sqrt2*g*c2g      = 0
        sqrt2*E*c1g + sqrt2*g*c1e + 2*deltaA'*c2g       = -sqrt2*U

    solved directly.
    """
    a, b = _system(params)
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularSystemError(
            f"weak-drive system is numerically singular (condition number {cond:.3e})"
        )
    return tuple(complex(c) for c in np.linalg.solve(a, b))
