"""Dense reference for the CC brute force: the int64 one-hot kernel that
enumerates every message assignment of Alice's against every one of Bob's,
block by block, with one int64 matmul per block."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from qpv.analysis.commcplx import _BLOCK, PAIR_BUDGET, BudgetExceeded, _num_assignments


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


def _least_error(f, k: int, num_b: int, bob_chunks) -> Fraction:
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


def smp_cc_reference(f, k: int) -> Fraction:
    """Least SMP error over every (Alice, Bob) pair of message assignments."""
    side = 1 << f.n
    return _least_error(f, k, _num_assignments(side, k),
                        _one_hot_chunks(side, k, _rows(k, 1 << k)))


def oneway_cc_reference(f, k: int) -> Fraction:
    """Least one-way error over every Alice assignment, Bob sending y."""
    side = 1 << f.n
    return _least_error(f, k, 1, [np.eye(side, dtype=np.int64)[None]])
