import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from atomembed import is_flat, validate_measure


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


@st.composite
def flat_floats(draw, max_size, gap=st.floats(0.0, 1.0)):
    """4 to max_size flat float weights in [0.5, 2].

    Random reciprocals z in [0.5, 2] are pulled towards their mean zbar by
    a factor t.  The criterion of the pulled values is
    2 n zbar^2 - (n-2) t^2 sum (z - zbar)^2, and t is drawn so that it is
    at least ``gap`` times 2 n zbar^2: with a gap of 0, measures up to the
    boundary of the flat cone are drawn.  Measures that rounding leaves
    outside the cone are rejected.
    """
    n = draw(st.integers(4, max_size))
    zs = draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
    zbar = sum(zs) / n
    spread = sum((z - zbar) ** 2 for z in zs)
    reach = 1.0 - draw(gap)
    t = min(1.0, math.sqrt(reach * 2 * n * zbar ** 2 / ((n - 2) * spread))) if spread else 0.0
    xs = [1 / (zbar + t * (z - zbar)) for z in zs]
    assume(is_flat(validate_measure(xs)).flat)
    return xs


@pytest.fixture
def rng():
    return random.Random(0xA70B)
