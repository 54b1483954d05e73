"""Named multi-qubit register layouts.

A layout is an ordered list of named registers, each a contiguous block of
qubits on a little-endian qubit line: qubit 0 is the first qubit of the
first register and carries the least significant bit of a basis-state
index.  Registers may be empty (width 0).

Every operator application, partial trace and qubit permutation in qcore
goes through one helper, :func:`rows_first`, which views a batch of state
vectors as matrices whose rows run over chosen qubits, or through its flat
gather index and inverse, :func:`row_gather`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

MAX_QUBITS = 16


@dataclass(frozen=True)
class RegisterLayout:
    registers: tuple[tuple[str, int], ...]
    # set at construction from ``registers``: name -> (offset, width), the
    # register names in order, the qubit count and the state dimension
    _slots: dict[str, tuple[int, int]] = field(init=False, repr=False, compare=False)
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    total_qubits: int = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)

    def __init__(self, registers):
        regs = tuple((str(name), int(width)) for name, width in registers)
        names = tuple(name for name, _ in regs)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate register names in {list(names)}")
        for name, width in regs:
            if width < 0:
                raise ValueError(f"register {name!r} has negative width")
        total = sum(width for _, width in regs)
        if total > MAX_QUBITS:
            raise ValueError(f"{total} qubits exceeds the {MAX_QUBITS}-qubit cap")
        slots = {}
        at = 0
        for name, width in regs:
            slots[name] = (at, width)
            at += width
        for attr, value in (("registers", regs), ("_slots", slots), ("names", names),
                            ("total_qubits", total), ("dim", 1 << total)):
            object.__setattr__(self, attr, value)

    def _slot(self, name: str) -> tuple[int, int]:
        try:
            return self._slots[name]
        except KeyError:
            raise KeyError(f"unknown register {name!r}") from None

    def width(self, name: str) -> int:
        return self._slot(name)[1]

    def positions(self, *names: str) -> list[int]:
        """Global qubit indices of the named registers, in the given order."""
        out: list[int] = []
        for name in names:
            off, width = self._slot(name)
            out.extend(range(off, off + width))
        return out

    def subdim(self, *names: str) -> int:
        return 1 << sum(self._slot(name)[1] for name in names)


@lru_cache(maxsize=256)
def _row_axes(n: int, rows: tuple[int, ...]) -> tuple[int, ...]:
    """Axis order of :func:`rows_first` on a ``(b, 2, ..., 2)`` view, where
    qubit q sits on axis n - q; at most 256 cached, each n + 1 ints."""
    cols = [q for q in range(n) if q not in rows]
    return (0,) + tuple(n - q for q in reversed(rows)) + tuple(n - q for q in cols)


def rows_first(vecs: np.ndarray, n: int, rows) -> np.ndarray:
    """A ``(b, 2^n)`` batch of vectors as ``(b, 2^k, 2^(n-k))`` matrices.

    Rows are indexed little-endian over the ``k`` qubits ``rows``, in the
    given order; columns run over the other qubits with the lowest qubit as
    the most significant bit.  A 1-D vector is a batch of one.
    """
    t = np.reshape(vecs, (-1,) + (2,) * n).transpose(_row_axes(n, tuple(rows)))
    return t.reshape(len(t), 1 << len(rows), 1 << (n - len(rows)))


def _frozen(index: np.ndarray) -> np.ndarray:
    index.flags.writeable = False
    return index


@lru_cache(maxsize=64)
def row_gather(n: int, rows: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """``(idx, back)``: ``vecs.take(idx, axis=1)`` holds the entries of
    :func:`rows_first` in its order, and ``back = argsort(idx)`` undoes it.
    Read-only intp arrays of 8 * 2^n bytes; with :func:`step_gather`, at most
    3 x 64 are cached: 96 MiB at n = 16, 192 KiB at the see-saw's n <= 7."""
    idx = rows_first(np.arange(1 << n, dtype=np.intp), n, rows).ravel()
    return _frozen(idx), _frozen(np.argsort(idx))


@lru_cache(maxsize=64)
def step_gather(n: int, prev: tuple[int, ...], rows: tuple[int, ...]) -> np.ndarray:
    """``back`` of ``prev`` then ``idx`` of ``rows``, as one gather."""
    return _frozen(row_gather(n, prev)[1].take(row_gather(n, rows)[0]))
