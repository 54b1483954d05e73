"""Brute-force distributional communication complexity (uniform inputs).

Alice's message functions are enumerated against Bob's: all of them (SMP),
or the one that sends y itself (one-way).  The referee or decoder is not
enumerated: its optimal choice is the per-cell majority vote, computed in
closed form.  All errors are exact rationals scaled by 4^n.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count

import numpy as np

from .boolfun import BooleanFunction

# protocols are message assignments {0,1}^n -> {0,1}^k: the guard counts
# (Alice, Bob) pairs of them, and an enumeration block has <= _BLOCK cells
PAIR_BUDGET = 1 << 24
_BLOCK = 1 << 19


class BudgetExceeded(Exception):
    """Raised when an enumeration would exceed the configured budget."""


def _num_assignments(side: int, k: int) -> int:
    if k < 1:
        raise ValueError("message length k must be at least 1")
    bits = k * side
    if bits >= 63:
        raise BudgetExceeded(f"2^{bits} message assignments")
    return 1 << bits


def _rows(k: int, cols: int) -> int:
    """Assignments per chunk whose (rows * 2^k, cols) block fits in _BLOCK."""
    return max(1, _BLOCK // (cols << k))


def _one_hot_chunks(side: int, k: int, rows: int):
    """Yield all message assignments, ``rows`` at a time, as (rows, 2^k, side)
    int64 indicators; assignment i is the map x -> (i >> (k*x)) mod 2^k."""
    total = _num_assignments(side, k)
    shifts = np.uint64(k) * np.arange(side, dtype=np.uint64)
    messages = np.arange(1 << k, dtype=np.uint64)[:, None]
    for start in range(0, total, rows):
        idx = np.arange(start, min(start + rows, total), dtype=np.uint64)
        assign = (idx[:, None] >> shifts) & np.uint64((1 << k) - 1)
        yield (assign[:, None, :] == messages).astype(np.int64)


def _least_error(f: BooleanFunction, k: int, num_b: int, bob_chunks) -> Fraction:
    """Least majority-referee error over Alice's k-bit message assignments and
    Bob's ``num_b`` assignments, one-hot (B, cells, 2^n) ``bob_chunks``."""
    side = 1 << f.n
    pairs = _num_assignments(side, k) * num_b
    if pairs > PAIR_BUDGET:
        raise BudgetExceeded(f"{pairs} message-function pairs exceed budget {PAIR_BUDGET}")
    m = f.communication_matrix().astype(np.int64)
    best = side * side
    for hot_b in bob_chunks:
        ones_b = m @ hot_b.reshape(-1, side).T          # (x, B*cells): y with f = 1
        size_b = hot_b.sum(axis=2).reshape(-1)          # (B*cells,): all y
        for hot_a in _one_hot_chunks(side, k, _rows(k, ones_b.shape[1])):
            # per cell (s, t): pairs with f = 1, then the minority count
            c1 = hot_a.reshape(-1, side) @ ones_b
            minority = np.outer(hot_a.sum(axis=2), size_b)
            minority -= c1
            np.minimum(c1, minority, out=minority)
            err = minority.reshape(len(hot_a), 1 << k, *hot_b.shape[:2]).sum(axis=(1, 3))
            best = min(best, int(err.min()))
            if best == 0:
                return Fraction(0)
    return Fraction(best, side * side)


def smp_cc_bruteforce(f: BooleanFunction, k: int) -> Fraction:
    """Exact minimal uniform error of k-bit simultaneous message protocols."""
    side = 1 << f.n
    # Bob's chunks are sized so that a block still fits one Alice assignment
    return _least_error(f, k, _num_assignments(side, k),
                        _one_hot_chunks(side, k, _rows(k, 1 << k)))


def smp_cc(f: BooleanFunction, error: Fraction = Fraction(1, 4)) -> int:
    """Least message length k >= 1 with SMP error at most ``error``.  At k = n
    the error is 0, so the search ends there at the latest, or at the budget."""
    error = Fraction(error)
    for k in count(1):
        if smp_cc_bruteforce(f, k) <= error:
            return k


def oneway_cc_bruteforce(f: BooleanFunction, k: int) -> Fraction:
    """Exact minimal uniform error of k-bit one-way protocols: Bob's optimal
    decoder is the SMP majority referee when Bob's message is y itself."""
    side = 1 << f.n
    return _least_error(f, k, 1, [np.eye(side, dtype=np.int64)[None]])
