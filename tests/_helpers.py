import numpy as np

from cocyclespan import GeneratorSystem
from cocyclespan.errors import InputError

# a 3x3 system, for the checks that reject d != 2 before any work
D3 = GeneratorSystem((np.diag([1.0, 2.0, 3.0]),))


def random_2x2_system(rng, ell=2):
    """Generic invertible pair with standard normal entries."""
    while True:
        mats = tuple(rng.standard_normal((2, 2)) for _ in range(ell))
        try:
            return GeneratorSystem(mats)
        except InputError:
            continue


def random_integer_unimodular(rng):
    """Product of integer shears: exactly invertible over the integers."""
    P = np.eye(2)
    for _ in range(int(rng.integers(1, 4))):
        a = float(rng.integers(-3, 4))
        if rng.integers(2):
            P = P @ np.array([[1.0, a], [0.0, 1.0]])
        else:
            P = P @ np.array([[1.0, 0.0], [a, 1.0]])
    return P


def random_reducible_system(rng, ell=2):
    """Integer-conjugated upper triangular tuple: exact common invariant line."""
    P = random_integer_unimodular(rng)
    Pinv = np.round(np.linalg.inv(P))  # unimodular: integer inverse
    mats = []
    for _ in range(ell):
        diag = [float(rng.integers(1, 5)), float(rng.integers(1, 5))]
        upper = np.array([[diag[0], float(rng.integers(-3, 4))], [0.0, diag[1]]])
        mats.append(P @ upper @ Pinv)
    return GeneratorSystem(tuple(mats))
