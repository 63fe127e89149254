"""The weak-drive closed form one point at a time, kept as an oracle for the array path.

These are the scalar ``amplitudes_closed_form``, ``g2_weak_drive`` and
``mean_photon_weak_drive`` the package evaluated before it took whole grids
as arrays: Python complex arithmetic, each failure raised where it is first
met.  They raise the package's exception types with the same messages and
do not warn.  ``amplitudes`` returns ``(c0e, c1g, c1e, c2g)``.
"""

import cmath
import math

from qdblockade import ModelParams, SingularSystemError, UndefinedCorrelationError

_SQRT2 = math.sqrt(2.0)


def amplitudes(params: ModelParams) -> tuple[complex, complex, complex, complex]:
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
    return c0e, c1g, c1e, c2g


def g2_weak_drive(params: ModelParams) -> float:
    c1g, c2g = amplitudes(params)[1::2]
    one = float(abs(c1g))  # a float raises on overflow where a NumPy scalar warns
    if one == 0.0:
        raise UndefinedCorrelationError("one-photon amplitude vanishes (is E = 0?)")
    try:
        return 2.0 * float(abs(c2g)) ** 2 / one**4
    except ZeroDivisionError:
        raise UndefinedCorrelationError("|c1g|^4 underflows float64 (is E tiny?)") from None
    except OverflowError:
        raise SingularSystemError("weak-drive g2(0) overflows float64") from None


def mean_photon_weak_drive(params: ModelParams) -> float:
    c1g = amplitudes(params)[1]
    try:
        return float(abs(c1g)) ** 2
    except OverflowError:
        raise SingularSystemError("weak-drive mean photon number overflows float64") from None
