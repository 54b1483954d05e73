"""Brute-force distributional communication complexity (uniform inputs).

Alice's message functions are enumerated against Bob's: all of them (SMP),
or the one that sends y itself (one-way).  The referee or decoder is not
enumerated: its optimal choice is the per-cell majority vote, computed in
closed form.  All errors are exact rationals scaled by 4^n.

The enumeration meets in the middle.  An Alice map is a map on the low half
of her inputs next to one on the high half, so each message cell's signed
count d = c1 - c0 (its pairs with f = 1 less those with f = 0) is a
low-table entry plus a high-table entry.  Both tables are built once, in
int16, from the signed matrix 2f - 1; a block of maps is then one broadcast
add, an absolute value and a sum.  A cell's majority error is
(c0 + c1 - |d|) / 2, so the least error is (4^n - max sum |d|) / (2 * 4^n).
Relabelling messages permutes the cells and keeps each cell's majority
error, so only maps with a(0) = 0 (for SMP also b(0) = 0) are enumerated.
With k >= n Alice can send x (for SMP both parties their inputs), so the
error is 0 without enumerating.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count

import numpy as np

from .boolfun import PAIR_BUDGET, BooleanFunction, BudgetExceeded

# protocols are message assignments {0,1}^n -> {0,1}^k: the guard counts
# (Alice, Bob) pairs of them against PAIR_BUDGET, and an enumeration block
# has <= _BLOCK cells
_BLOCK = 1 << 19


def _num_assignments(side: int, k: int) -> int:
    if k < 1:
        raise ValueError("message length k must be at least 1")
    bits = k * side
    if bits >= 63:
        raise BudgetExceeded(f"2^{bits} message assignments")
    return 1 << bits


def _check_budget(pairs: int) -> None:
    if pairs > PAIR_BUDGET:
        raise BudgetExceeded(f"{pairs} message-function pairs exceed budget {PAIR_BUDGET}")


def _one_hot(width: int, k: int, first_zero: bool) -> np.ndarray:
    """All k-bit message maps on ``width`` points, as (maps, 2^k, width) int64
    indicators; with ``first_zero`` only those sending point 0 to message 0."""
    free = width - first_zero
    idx = np.arange(1 << (k * free), dtype=np.int64)[:, None]
    maps = (idx >> (k * np.arange(free))) & ((1 << k) - 1)
    if first_zero:
        maps = np.concatenate([np.zeros((len(maps), 1), np.int64), maps], axis=1)
    return (maps[:, None, :] == np.arange(1 << k)[:, None]).astype(np.int64)


def _least_error(f: BooleanFunction, k: int, hot_b: np.ndarray) -> Fraction:
    """Least majority-referee error over Alice's k-bit message maps with
    a(0) = 0 and Bob's maps, one-hot (B, cells, 2^n) ``hot_b``."""
    side = 1 << f.n
    half = side // 2
    # |d| and a map pair's sum of |d| are at most side^2, which int16 holds
    assert side * side <= np.iinfo(np.int16).max
    signed = 2 * f.communication_matrix().astype(np.int64) - 1
    bob = hot_b.reshape(-1, side).T
    d = (signed @ bob).reshape(side, *hot_b.shape[:2])
    # axes: Alice's map a and message s, Bob's map b and cell t; Alice's
    # low-half maps go innermost, so a block's sum over cells adds rows
    lo = np.einsum("asx,xbt->stba", _one_hot(half, k, True), d[:half])
    hi = np.einsum("asx,xbt->astb", _one_hot(half, k, False), d[half:])
    lo = lo.reshape(-1, *lo.shape[2:]).astype(np.int16, order="C")  # (st, b, a)
    hi = hi.reshape(len(hi), -1, hi.shape[-1], 1).astype(np.int16, order="C")
    # within PAIR_BUDGET one high-half map's block, lo.size, is <= 2^18 cells
    rows = max(1, _BLOCK // lo.size)
    buf = np.empty((min(rows, len(hi)),) + lo.shape, np.int16)
    # c0 + c1 sums to side^2 over the cells: the least error maximises sum |d|
    most = 0
    for start in range(0, len(hi), rows):
        part = hi[start:start + rows]
        block = np.add(lo, part, out=buf[:len(part)])
        np.abs(block, out=block)
        most = max(most, int(block.sum(axis=1, dtype=np.int16).max()))
        if most == side * side:
            return Fraction(0)
    return Fraction(side * side - most, 2 * side * side)


def smp_cc_bruteforce(f: BooleanFunction, k: int) -> Fraction:
    """Exact minimal uniform error of k-bit simultaneous message protocols."""
    side = 1 << f.n
    num = _num_assignments(side, k)
    _check_budget(num * num)
    if k >= f.n:
        return Fraction(0)
    return _least_error(f, k, _one_hot(side, k, True))


def smp_cc(f: BooleanFunction) -> int:
    """Least message length k >= 1 with SMP error at most 1/4.  At k = n the
    error is 0, so the search ends there at the latest, or at the budget."""
    for k in count(1):
        if smp_cc_bruteforce(f, k) <= Fraction(1, 4):
            return k


def oneway_cc_bruteforce(f: BooleanFunction, k: int) -> Fraction:
    """Exact minimal uniform error of k-bit one-way protocols: Bob's optimal
    decoder is the SMP majority referee when Bob's message is y itself."""
    side = 1 << f.n
    _check_budget(_num_assignments(side, k))
    if k >= f.n:
        return Fraction(0)
    return _least_error(f, k, np.eye(side, dtype=np.int64)[None])
