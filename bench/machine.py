"""Machine-speed probe: a fixed piece of pure-Python work.

It uses nothing from fractal_forest, so a change to the program does not
move it, while a busy neighbour on a shared core slows it much as it
slows the program.  It mixes what the workloads do: small Fraction
arithmetic, an int loop, a dict of tuple keys (as in TriPoly) and
products of numbers with thousands of digits.  Reported times are
scaled by REFERENCE_PROBE_S over the probe times measured around them.
"""

import time
from fractions import Fraction

# about the probe's time on an idle core of the machine the bounds were
# set on (2 vCPUs, Python 3.11.7); only ratios to it matter
REFERENCE_PROBE_S = 0.003

_BIG_A = 3**20000 + 7
_BIG_B = 7**14000 + 3


def probe() -> float:
    """Seconds taken by the probe's fixed work."""
    start = time.perf_counter()
    x = Fraction(0)
    for i in range(1, 60):
        x += Fraction(1, i) * Fraction(i + 2, 3)
    n = 0
    for i in range(20_000):
        n += i * i
    terms = {}
    for i in range(3000):
        terms[(i % 7, i % 11, i)] = i * 31
    for (e, _f, _g), c in terms.items():
        n += c * e
    n += (_BIG_A * _BIG_B) % 1009
    x += Fraction(_BIG_A % 10**600, _BIG_B % 10**600 + 1)
    return time.perf_counter() - start
