"""Permutation descents, Eulerian rows, set partitions, cumulant inversion.

Everything here is exact integer / exact partition combinatorics.  The
Eulerian row of order n collects the counts of n-permutations by number of
descents; the same integers weight the beta-derivative tower in
:mod:`thermalquench.thermal`, which is why two independent constructions
(the recursion and brute-force enumeration) are both kept and cross-checked.

The moment/cumulant inversion works on subset-keyed tables: a moment is
attached to each non-empty subset of slots, and the connected part of a
subset is obtained by peeling off all coarser partitions.  Re-assembling
moments from connected parts over all set partitions is the inverse map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

DEFAULT_ORDER_CAP = 16
ENUMERATION_CAP = 9
PARTITION_CAP = 10


def descent_count(perm: Sequence[int]) -> int:
    """Number of positions i with perm[i] > perm[i+1].

    ``perm`` must be a permutation of 1..n; anything else is rejected.
    """
    n = len(perm)
    if n == 0 or sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..n: {perm!r}")
    return sum(perm[i] > perm[i + 1] for i in range(n - 1))


@dataclass(frozen=True)
class EulerianRow:
    """Row n of the Eulerian triangle: coefficients[k-1] counts the
    n-permutations with k-1 descents."""

    n: int
    coefficients: tuple[int, ...]

    def __post_init__(self):
        if len(self.coefficients) != self.n:
            raise ValueError("row length must equal its order")

    @property
    def row_sum(self) -> int:
        return sum(self.coefficients)


@lru_cache(maxsize=None)
def _eulerian_coefficients(n: int) -> tuple[int, ...]:
    if n == 1:
        return (1,)
    prev = _eulerian_coefficients(n - 1)
    row = [1] * n
    for k in range(2, n):
        # c[n,k] = k*c[n-1,k] + (n+1-k)*c[n-1,k-1], 1-based k
        row[k - 1] = k * prev[k - 1] + (n + 1 - k) * prev[k - 2]
    return tuple(row)


def eulerian_row_recursive(n: int) -> EulerianRow:
    """Eulerian row by the two-term recursion, exact integers."""
    if not 1 <= n <= DEFAULT_ORDER_CAP:
        raise ValueError(f"order must satisfy 1 <= n <= {DEFAULT_ORDER_CAP}, got {n}")
    return EulerianRow(n, _eulerian_coefficients(n))


def eulerian_row_by_enumeration(n: int) -> EulerianRow:
    """Eulerian row by counting descents over all n! permutations.

    Independent of the recursion; capped at n <= 9 since the enumeration is
    factorial.
    """
    if not 1 <= n <= ENUMERATION_CAP:
        raise ValueError(
            f"enumeration is capped at n <= {ENUMERATION_CAP}, got {n}"
        )
    counts = [0] * n
    for perm in itertools.permutations(range(1, n + 1)):
        d = sum(perm[i] > perm[i + 1] for i in range(n - 1))
        counts[d] += 1
    return EulerianRow(n, tuple(counts))


def _partitions_of(items: tuple) -> list[list[list]]:
    """All partitions of ``items`` into non-empty blocks.

    Deterministic order: the first item always opens the first block, and
    each later item is either appended to an existing block (in order) or
    opens a new one.
    """
    if not items:
        return [[]]
    head, rest = items[0], items[1:]
    out: list[list[list]] = []
    for partial in _partitions_of(rest):
        for i in range(len(partial)):
            out.append(partial[:i] + [[head] + partial[i]] + partial[i + 1 :])
        out.append([[head]] + partial)
    return out


def set_partitions(n: int) -> list[list[list[int]]]:
    """All partitions of {1..n} into non-empty blocks, Bell(n) of them."""
    if not 1 <= n <= PARTITION_CAP:
        raise ValueError(f"order must satisfy 1 <= n <= {PARTITION_CAP}, got {n}")
    parts = _partitions_of(tuple(range(1, n + 1)))
    # canonical presentation: elements ascending within blocks, blocks by min
    canon = [sorted((sorted(b) for b in p), key=lambda b: b[0]) for p in parts]
    canon.sort()
    return canon


def bell_number(n: int) -> int:
    """Bell number via the triangle recurrence (used as a count oracle)."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1] if n >= 1 else 1


def connected_from_moments(
    moments: Mapping[frozenset, complex],
) -> dict[frozenset, complex]:
    """Connected (cumulant) parts of a subset-keyed moment table.

    ``moments`` must contain every non-empty subset of its ground set (the
    union of all keys).  The empty product has moment 1 by convention and
    the connected part of the identity is 0, so only non-empty subsets
    appear.  The returned table satisfies, for every subset S,

        moments[S] = sum over partitions P of S of
                     prod over blocks B in P of connected[B]
    """
    keys = {frozenset(k) for k in moments}
    if not keys or frozenset() in keys:
        raise ValueError("moment table must be keyed by non-empty subsets")
    ground = sorted(set().union(*keys))
    expected = {
        frozenset(c)
        for r in range(1, len(ground) + 1)
        for c in itertools.combinations(ground, r)
    }
    if keys != expected:
        missing = sorted(tuple(sorted(s)) for s in expected - keys)
        raise ValueError(f"moment table incomplete; missing subsets {missing}")

    moments = {frozenset(k): v for k, v in moments.items()}
    connected: dict[frozenset, complex] = {}
    for size in range(1, len(ground) + 1):
        for combo in itertools.combinations(ground, size):
            subset = frozenset(combo)
            total = 0
            for partition in _partitions_of(combo):
                if len(partition) == 1:
                    continue  # the singleton partition is the unknown
                prod = 1
                for block in partition:
                    prod *= connected[frozenset(block)]
                total += prod
            connected[subset] = moments[subset] - total
    return connected


def moments_from_connected(
    connected: Mapping[frozenset, complex],
) -> dict[frozenset, complex]:
    """Inverse of :func:`connected_from_moments`: re-assemble the moments by
    summing block products over all partitions of each subset."""
    keys = {frozenset(k) for k in connected}
    connected = {frozenset(k): v for k, v in connected.items()}
    out: dict[frozenset, complex] = {}
    for subset in keys:
        total = 0
        for partition in _partitions_of(tuple(sorted(subset))):
            prod = 1
            for block in partition:
                prod *= connected[frozenset(block)]
            total += prod
        out[subset] = total
    return out
