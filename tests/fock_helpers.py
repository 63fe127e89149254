"""Operators and states that only the tests build on the dot (x) cavity space."""

import numpy as np

from qdblockade import HilbertSpace, annihilation_op, dagger


def identity(space: HilbertSpace) -> np.ndarray:
    return np.eye(space.dim, dtype=complex)


def creation_op(space: HilbertSpace) -> np.ndarray:
    return dagger(annihilation_op(space))


def number_op(space: HilbertSpace) -> np.ndarray:
    a = annihilation_op(space)
    return dagger(a) @ a


def basis_state(space: HilbertSpace, qd: int, n: int) -> np.ndarray:
    """Unit column vector |qd, n> on the composite space."""
    v = np.zeros(space.dim, dtype=complex)
    v[space.index(qd, n)] = 1.0
    return v
