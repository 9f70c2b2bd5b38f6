import random
from fractions import Fraction

import pytest

from atomembed import validate_measure


def rational_tuple(rng: random.Random, size: int, max_num: int = 30):
    """Random strictly positive Fractions with small numerators/denominators."""
    return tuple(
        Fraction(rng.randint(1, max_num), rng.randint(1, max_num))
        for _ in range(size)
    )


def float_tuple(rng: random.Random, size: int, lo: float = 0.05, hi: float = 1.0):
    return tuple(rng.uniform(lo, hi) for _ in range(size))


def rational_measure(rng: random.Random, size: int, normalize: bool = False):
    return validate_measure(rational_tuple(rng, size), normalize=normalize)


def float_measure(rng: random.Random, size: int, normalize: bool = False):
    return validate_measure(float_tuple(rng, size), normalize=normalize)


def zero_criterion_weights(z1, z2, excess):
    """Four weights on the boundary: their reduced criterion is exactly 0.

    In z = 1/x the 4-atom criterion vanishes at z4 = z1 + z2 + z3 + 2 sqrt(e2)
    with e2 = z1 z2 + z1 z3 + z2 z3; z3 > 0 is chosen so that e2 = t^2 with
    t = z1 + z2 + excess.
    """
    t = z1 + z2 + excess
    z3 = (t * t - z1 * z2) / (z1 + z2)
    zs = (z1, z2, z3, z1 + z2 + z3 + 2 * t)
    return [1 / z for z in zs]


@pytest.fixture
def rng():
    return random.Random(0xA70B)
