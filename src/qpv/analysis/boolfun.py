"""Boolean functions on paired n-bit inputs and their communication matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..qcore.rng import as_generator

# one budget for the exhaustive objects of this package: a truth table's
# 2^(2n) entries, and the (Alice, Bob) pairs of message maps the CC brute
# force enumerates
PAIR_BUDGET = 1 << 24


class BudgetExceeded(Exception):
    """Raised when a table or an enumeration would exceed its budget."""


@dataclass(frozen=True)
class BooleanFunction:
    """Truth table on {0,1}^n x {0,1}^n, stored row-major (x outer, y inner)."""

    n: int
    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table)
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if table.shape != (1 << (2 * self.n),):
            raise ValueError(f"table must have length {1 << (2 * self.n)}")
        # checked before the uint8 cast, which would wrap -1 and truncate 0.5;
        # unsigned entries are bits when the largest is, with no temporary table
        kind = table.dtype.kind
        if kind not in "biuf" or not (table.max() <= 1 if kind in "bu"
                                      else np.all((table == 0) | (table == 1))):
            raise ValueError("table entries must be bits")
        table = table.astype(np.uint8, copy=False)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    def value(self, x: int, y: int) -> int:
        side = 1 << self.n
        if not (0 <= x < side and 0 <= y < side):
            raise ValueError(f"inputs must be {self.n}-bit strings")
        return int(self.table[x * side + y])

    def communication_matrix(self) -> np.ndarray:
        side = 1 << self.n
        return np.asarray(self.table).reshape(side, side)

    def pairs(self):
        side = 1 << self.n
        for x in range(side):
            for y in range(side):
                yield x, y


def _parity_function(n: int, combine) -> BooleanFunction:
    """f(x, y) = parity of the bits of combine(x, y), built in uint8 one bit
    at a time: with x = 2^k x_k + x' (and y alike), the table on k + 1 bits
    is the 1-bit table on (x_k, y_k) XOR the k-bit table on (x', y')."""
    if n < 1:
        raise ValueError("n must be at least 1")
    table = bit = combine(*np.ix_([0, 1], [0, 1])).astype(np.uint8)
    for _ in range(n - 1):
        side = 2 * len(table)
        table = (bit[:, None, :, None] ^ table[None, :, None, :]).reshape(side, side)
    return BooleanFunction(n, table.reshape(-1))


def ip_function(n: int) -> BooleanFunction:
    """Inner product mod 2 of the two n-bit inputs."""
    return _parity_function(n, np.bitwise_and)


def constant_function(n: int, bit: int) -> BooleanFunction:
    return BooleanFunction(n, np.broadcast_to(bit, 1 << (2 * n)))


def xor_function(n: int) -> BooleanFunction:
    """Parity of x XOR y (for n=1 this is the two-bit XOR)."""
    return _parity_function(n, np.bitwise_xor)


def random_function(n: int, rng) -> BooleanFunction:
    g = as_generator(rng)
    return BooleanFunction(n, g.integers(0, 2, size=1 << (2 * n), dtype=np.uint8))


def _bit_string(bits: str) -> np.ndarray:
    """A table of '0'/'1' characters; BooleanFunction refuses any other, a
    non-ASCII one (read as '?') included."""
    return np.frombuffer(bits.encode("ascii", "replace"), dtype=np.uint8) - ord("0")


def _table_n(n: int) -> int:
    """``n``, refused before anything is built when a 2^(2n)-entry table
    would exceed PAIR_BUDGET."""
    if 2 * n > PAIR_BUDGET.bit_length() - 1:
        raise BudgetExceeded(f"f.n: a 2^{2 * n}-entry table exceeds budget {PAIR_BUDGET}")
    return n


# file format: first line "n=<int>", second line the 2^(2n) table bits
# in row-major (x outer, y inner) order.

def load_function(path) -> BooleanFunction:
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        header = fh.readline().strip()
        if not header.startswith("n="):
            raise ValueError("first line must be 'n=<int>'")
        n = _table_n(int(header[2:]))
        bits = fh.readline().strip()
    if len(bits) != 1 << (2 * n):
        raise ValueError(f"expected {1 << (2 * n)} table bits, got {len(bits)}")
    return BooleanFunction(n, _bit_string(bits))


def function_from_spec(spec: dict) -> BooleanFunction:
    """Build a function from a config object {kind, n, seed?/table?}."""
    kind = spec.get("kind")
    if kind not in ("ip", "xor", "constant", "random", "table"):
        raise ValueError(f"unknown function kind {kind!r}")
    n = _table_n(int(spec["n"]))
    if kind == "ip":
        return ip_function(n)
    if kind == "xor":
        return xor_function(n)
    if kind == "constant":
        return constant_function(n, int(spec.get("bit", 0)))
    if kind == "random":
        return random_function(n, int(spec["seed"]))
    bits = spec["table"]
    return BooleanFunction(n, _bit_string(bits) if isinstance(bits, str) else bits)
