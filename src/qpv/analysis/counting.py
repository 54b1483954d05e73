"""Counting argument, covering-net sizes, and certified exponent arithmetic.

The probability-bound exponent mixes terms of order 2^(2n) with a strict
requirement of being below -2^n, so the comparison is carried out in
interval arithmetic at >= 200 bits; the interval's upper endpoint stands in
for the bound (directed rounding upward), making the pass flag a certified
inequality.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from mpmath import iv, mp

NET_BASE = 927                        # per-coordinate covering constant
DELTA = Fraction(216, 100_000)        # 0.00216
DELTA_BUDGET = Fraction(65, 10_000)   # 0.0065
IV_PRECISION = 240


@contextmanager
def _high_precision():
    old_iv, old_mp = iv.prec, mp.prec
    iv.prec = mp.prec = IV_PRECISION
    try:
        yield
    finally:
        iv.prec, mp.prec = old_iv, old_mp


def hamming_volume(n: int, a: int) -> int:
    """Exact cardinality of the Hamming ball of radius a in {0,1}^n."""
    if not 0 <= a <= n:
        raise ValueError(f"radius {a} outside [0, {n}]")
    return sum(math.comb(n, r) for r in range(a + 1))


def _iv_log2(x):
    return iv.log(x) / iv.log(iv.mpf(2))


def _iv_binary_entropy(p):
    one = iv.mpf(1)
    return -p * _iv_log2(p) - (one - p) * _iv_log2(one - p)


def volume_entropy_check(n: int, lam) -> bool:
    """Check V(n, lam*n) <= 2^(n*h(lam)) with an upward-rounded right side."""
    lam = Fraction(lam)
    if not (0 < lam < Fraction(1, 2)):
        raise ValueError("lambda must lie in (0, 1/2)")
    a = lam * n
    if a.denominator != 1:
        raise ValueError(f"lambda*n = {a} is not integral")
    vol = hamming_volume(n, int(a))
    with _high_precision():
        p = iv.mpf(lam.numerator) / iv.mpf(lam.denominator)
        rhs_upper = (iv.mpf(2) ** (n * _iv_binary_entropy(p))).b
        return bool(mp.mpf(vol) <= mp.mpf(rhs_upper))


@dataclass(frozen=True)
class NetSizeReport:
    q: int
    log2_na: float
    log2_nb: float
    log2_ns: float
    k: float
    note: str

    def as_dict(self) -> dict:
        return {
            "q": self.q,
            "log2_net_alice": self.log2_na,
            "log2_net_bob": self.log2_nb,
            "log2_net_states": self.log2_ns,
            "k": self.k,
            "note": self.note,
        }


NET_DIMENSION_NOTE = (
    "unitary nets are sized for one attacker's q-qubit registers (dimension "
    "2^q); the split of those qubits between local and message registers is "
    "not fixed by the size formulas"
)


def net_size_report(q: int) -> NetSizeReport:
    """Covering-net log-sizes for q-qubit local unitaries and the shared state.

    log2|N_A| = log2|N_B| = 2^(2q+1) log2(927) and log2|N_S| = k =
    2^(2q+2) log2(927).
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    log2c = math.log2(NET_BASE)
    unit = (1 << (2 * q + 1)) * log2c
    state = (1 << (2 * q + 2)) * log2c
    return NetSizeReport(q=q, log2_na=unit, log2_nb=unit, log2_ns=state,
                         k=state, note=NET_DIMENSION_NOTE)


def delta_margin_value(delta=DELTA) -> Fraction:
    delta = Fraction(delta)
    return 3 * delta + 3 * delta ** 2 + delta ** 3


def delta_margin_check(delta=DELTA) -> bool:
    """Exact rational check that 3d + 3d^2 + d^3 < DELTA_BUDGET."""
    return delta_margin_value(delta) < DELTA_BUDGET


@dataclass(frozen=True)
class CountingReport:
    n: int
    q: int
    k: float
    log2_bound: float
    passes: bool
    precondition_note: str = ""

    def as_dict(self) -> dict:
        out = {
            "n": self.n,
            "q": self.q,
            "k": self.k,
            "log2_bound": self.log2_bound,
            "threshold": float(-(1 << self.n)),
            "passes": self.passes,
        }
        if self.precondition_note:
            out["precondition_note"] = self.precondition_note
        return out


def counting_bound(n: int, q: int) -> CountingReport:
    """Certified evaluation of the function-counting exponent.

    Computes log2[ 2^((2^(n+1)+1)k) * 2^(2^(2n) h(1/4)) * 2^(-2^(2n)) ] with
    k = log2(927) * 2^(2q+2); ``passes`` is true when the upper endpoint of
    the interval is strictly below -2^n.
    """
    if n < 1 or q < 0:
        raise ValueError("need n >= 1 and q >= 0")
    with _high_precision():
        k = _iv_log2(iv.mpf(NET_BASE)) * (1 << (2 * q + 2))
        h_quarter = _iv_binary_entropy(iv.mpf(1) / 4)
        exponent = (iv.mpf((1 << (n + 1)) + 1) * k
                    + iv.mpf(1 << (2 * n)) * h_quarter
                    - iv.mpf(1 << (2 * n)))
        upper = exponent.b
        passes = bool(upper < -(1 << n))
        note = ""
        if n < 10:
            note = "guarantee requires n >= 10; computed anyway"
        elif 2 * q > n - 10:
            note = "q exceeds n/2 - 5; no guarantee claimed"
        return CountingReport(n=n, q=q, k=float(k.mid),
                              log2_bound=float(upper),
                              passes=passes, precondition_note=note)


def attacker_qubit_bound(kind: str, *, n: int | None = None,
                         k: int | None = None) -> int:
    """Largest per-attacker qubit count with a security guarantee.

    ``kind='random'`` gives floor(n/2) - 5 for a random 2n-bit function;
    ``kind='cc'`` gives floor(log2(k)/2) - 3 for SMP complexity at least k.
    Negative values mean no guarantee at that size.
    """
    if kind == "random":
        if n is None or n < 1:
            raise ValueError("random kind needs n >= 1")
        return n // 2 - 5
    if kind == "cc":
        if k is None or k < 1:
            raise ValueError("cc kind needs k >= 1")
        # the largest q with 2^(2q + 6) <= k
        return (int(k).bit_length() - 7) // 2
    raise ValueError(f"unknown kind {kind!r}")
