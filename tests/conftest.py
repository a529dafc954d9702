import random
from fractions import Fraction

import pytest

from fractal_forest.algebra import positive_weights
from fractal_forest.kirchhoff import SchurState, schur_denominator


def positive_weight_list(seed: int, count: int):
    rng = random.Random(seed)
    return [positive_weights(rng) for _ in range(count)]


def random_states(seed: int, count: int):
    """Generic decimation states with nonvanishing denominator."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        s = SchurState.of(
            [Fraction(rng.randint(1, 97), rng.randint(1, 97)) for _ in range(9)]
        )
        if schur_denominator(s) != 0:
            out.append(s)
    return out


@pytest.fixture
def rng():
    return random.Random(20250809)
