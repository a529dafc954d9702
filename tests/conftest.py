import random

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
        s = SchurState.random(rng)
        if schur_denominator(s) != 0:
            out.append(s)
    return out
