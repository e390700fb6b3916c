"""Eulerian rows and moment/cumulant inversion.

Two unrelated-looking combinatorial gadgets that both feed the series
machinery: the Eulerian numbers (permutations counted by descents) weight
the thermal derivative tower, and the partition inversion turns moment
tables into connected functions, which is what isolates the genuinely
correlated part of a state.
"""

import itertools
import random

from thermalquench import (
    connected_from_moments,
    eulerian_row_by_enumeration,
    eulerian_row_recursive,
    moments_from_connected,
)


def main():
    print("== Eulerian triangle, two independent constructions ==")
    for n in range(1, 9):
        rec = eulerian_row_recursive(n)
        enum = eulerian_row_by_enumeration(n)
        status = "ok" if rec.coefficients == enum.coefficients else "MISMATCH"
        print(f"  n={n}: {rec.coefficients}  sum={rec.row_sum}  [{status}]")

    print("\n== cumulant inversion round trip ==")
    rnd = random.Random(7)
    n = 4
    moments = {
        frozenset(c): complex(rnd.randint(-3, 3), rnd.randint(-3, 3))
        for r in range(1, n + 1)
        for c in itertools.combinations(range(1, n + 1), r)
    }
    connected = connected_from_moments(moments)
    back = moments_from_connected(connected)
    print(f"  {len(moments)} moments -> connected parts -> moments: exact = {back == moments}")
    full = frozenset(range(1, n + 1))
    print(f"  top connected part kappa(1..{n}) = {connected[full]}")


if __name__ == "__main__":
    main()
