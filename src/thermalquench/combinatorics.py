"""Eulerian rows and cumulant inversion.

The Eulerian rows are exact integer combinatorics.  The Eulerian row of
order n collects the counts of n-permutations by number of descents; the
same integers weight the beta-derivative tower in
:mod:`thermalquench.thermal`, which is why two independent constructions
(the recursion and brute-force enumeration) are both kept and cross-checked.

The moment/cumulant inversion works on subset-keyed tables: a moment is
attached to each non-empty subset of slots, and a moment is the sum over the
set partitions of its subset of the products of connected parts over the
blocks.  Both directions solve that relation by the recursion on the block
of the least item, on tables indexed by bit mask, with no partition listed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

DEFAULT_ORDER_CAP = 16
ENUMERATION_CAP = 9


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


def _permutations(n: int) -> np.ndarray:
    """All n! permutations of 0..n-1 as an (n!, n) int8 table, built by
    insertion.

    Starting from the one empty permutation, v = 0..n-1 is written into each
    of the v + 1 slots of every permutation of 0..v-1.  The table is stored
    column-major (the transpose of an (n, n!) array), so each column, and so
    each adjacent-column comparison, is one contiguous run.
    """
    cols = np.zeros((0, 1), np.int8)  # (position, permutation)
    for v in range(n):
        out = np.empty((v + 1, v + 1, cols.shape[1]), np.int8)  # (position, slot, permutation)
        for slot in range(v + 1):
            out[:slot, slot] = cols[:slot]
            out[slot, slot] = v
            out[slot + 1 :, slot] = cols[slot:]
        cols = out.reshape(v + 1, -1)
    return cols.T


def eulerian_row_by_enumeration(n: int) -> EulerianRow:
    """Eulerian row by counting descents over all n! permutations.

    The permutations come from the insertion table of :func:`_permutations`;
    the descents are counted afterwards on that explicit table, by comparing
    adjacent columns.  Counting them while inserting would be the
    recursion's own proof (a new maximum keeps the descent count when it
    lands inside a descent or at the end, and adds one anywhere else), so
    the count stays independent of the recursion.  Row order does not
    matter, since the tally is order-free.  Capped at n <= 9 since the
    enumeration is factorial.
    """
    if not 1 <= n <= ENUMERATION_CAP:
        raise ValueError(
            f"enumeration is capped at n <= {ENUMERATION_CAP}, got {n}"
        )
    perms = _permutations(n)
    # int8 holds the at most 8 descents; its sum took 22 us at n = 8, int64's 148
    descents = (perms[:, :-1] > perms[:, 1:]).sum(axis=1, dtype=np.int8)
    return EulerianRow(n, tuple(np.bincount(descents, minlength=n).tolist()))


def _by_mask(table: Mapping[frozenset, complex]) -> tuple[list, list[int], list]:
    """A subset-keyed table as a list indexed by bit mask, where bit i stands
    for item i of the sorted ground set (the union of the keys), with the
    table's keys as frozensets and their masks, in the table's order.  An
    empty table, the empty subset as a key or a missing subset raises
    ValueError."""
    keys = [frozenset(k) for k in table]
    ground = sorted(frozenset().union(*keys))
    bit = {x: 1 << i for i, x in enumerate(ground)}
    values = [None] * (1 << len(ground))
    masks = []
    for key, value in zip(keys, table.values()):
        mask = 0
        for x in key:
            mask |= bit[x]
        masks.append(mask)
        values[mask] = value
    if not keys or values[0] is not None:
        raise ValueError("table must be keyed by non-empty subsets")
    missing = [
        tuple(x for i, x in enumerate(ground) if mask >> i & 1)
        for mask in range(1, len(values))
        if values[mask] is None
    ]
    if missing:
        missing.sort(key=lambda c: (len(c), c))
        raise ValueError(f"table incomplete; missing subsets {missing}")
    return keys, masks, values


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

    It is built by the recursion on the block B that holds the least item
    s0 of S:

        connected[S] = moments[S] - sum over s0 in B, B a proper subset of S
                       of connected[B] * moments[S - B]

    with subsets as bit masks in increasing order, so that every B and S - B
    on the right comes before S.  Values may be complex numbers or numpy
    arrays (elementwise); the caller's values are never updated in place.
    """
    keys, masks, m = _by_mask(moments)
    k = [None] * len(m)
    for s in range(1, len(m)):
        low = s & -s
        rest = t = s ^ low
        total = 0
        while t:  # t runs over the proper subsets of rest, down to 0
            t = (t - 1) & rest
            total = total + k[low | t] * m[rest ^ t]
        k[s] = m[s] - total
    return {key: k[mask] for key, mask in zip(keys, masks)}


def moments_from_connected(
    connected: Mapping[frozenset, complex],
) -> dict[frozenset, complex]:
    """Inverse of :func:`connected_from_moments`, on a table as complete: the
    same recursion solved for the moments, with moments[{}] = 1,

        moments[S] = connected[S] + sum over s0 in B, B a proper subset of S
                     of connected[B] * moments[S - B]
    """
    keys, masks, k = _by_mask(connected)
    m = [None] * len(k)
    for s in range(1, len(k)):
        low = s & -s
        rest = t = s ^ low
        total = 0
        while t:
            t = (t - 1) & rest
            total = total + k[low | t] * m[rest ^ t]
        m[s] = k[s] + total
    return {key: m[mask] for key, mask in zip(keys, masks)}
