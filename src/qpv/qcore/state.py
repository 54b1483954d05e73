"""Quantum states over named register layouts.

The package works on raw arrays: state vectors (optionally batched) and
density matrices indexed little-endian over a layout.  This module holds the
fixed vectors, product-state assembly and register relabelling on them.

:class:`QuantumState` is the validated, frozen container of an attack
strategy's pre-shared state (a pure vector or a density matrix) and the
state type of the dense reference ops in :mod:`qpv.qcore.ops`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layout import RegisterLayout, rows_back

PURE_NORM_TOL = 1e-12
TRACE_TOL = 1e-12
HERMITIAN_TOL = 1e-10
PSD_EIG_TOL = -1e-10


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=complex)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class QuantumState:
    layout: RegisterLayout
    kind: str  # "pure" | "mixed"
    data: np.ndarray

    def __post_init__(self):
        dim = self.layout.dim
        if self.kind == "pure":
            if self.data.shape != (dim,):
                raise ValueError(f"pure state must be a vector of length {dim}")
            norm = np.linalg.norm(self.data)
            if abs(norm - 1.0) > PURE_NORM_TOL:
                raise ValueError(f"pure state norm {norm} is not 1")
        elif self.kind == "mixed":
            if self.data.shape != (dim, dim):
                raise ValueError(f"density matrix must be {dim}x{dim}")
            if np.max(np.abs(self.data - self.data.conj().T)) > HERMITIAN_TOL:
                raise ValueError("density matrix is not Hermitian")
            tr = np.trace(self.data).real
            if abs(tr - 1.0) > TRACE_TOL:
                raise ValueError(f"density matrix trace {tr} is not 1")
            if np.min(np.linalg.eigvalsh(self.data)) < PSD_EIG_TOL:
                raise ValueError("density matrix is not positive semidefinite")
        else:
            raise ValueError(f"unknown state kind {self.kind!r}")
        object.__setattr__(self, "data", _frozen(self.data))

    @property
    def n_qubits(self) -> int:
        return self.layout.total_qubits

    def density(self) -> np.ndarray:
        """Density-matrix view (outer product for pure states)."""
        if self.kind == "pure":
            return np.outer(self.data, self.data.conj())
        return np.asarray(self.data)


def mixed_state(layout: RegisterLayout, rho) -> QuantumState:
    return QuantumState(layout, "mixed", np.asarray(rho, dtype=complex))


BELL_VECTOR = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2)

# |phi_1> = (|01>+|10>)/sqrt(2) and |phi_2> = (|00>-|11>)/sqrt(2) complete
# the relevant Bell-basis identities (|Omega>, |phi_1>, |phi_2> orthogonal).
PHI1_VECTOR = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2)
PHI2_VECTOR = np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) / math.sqrt(2)

_SQ = 1.0 / math.sqrt(2)
BB84_VECTORS = (
    np.array([1.0, 0.0], dtype=complex),      # |0>
    np.array([0.0, 1.0], dtype=complex),      # |1>
    np.array([_SQ, _SQ], dtype=complex),      # |+>
    np.array([_SQ, -_SQ], dtype=complex),     # |->
)


def assemble_raw(layout: RegisterLayout, factors) -> np.ndarray:
    """Product vector(s) on ``layout`` from per-group factor vectors.

    ``factors`` is an iterable of ``(register_names, vector)`` pairs; the
    groups must partition the layout's registers.  Each vector is indexed
    little-endian over its group's registers in the given order.  Groups may
    interleave arbitrarily across the layout.  A factor may carry leading
    batch axes; they broadcast, and the result is a batch of vectors.
    """
    n = layout.total_qubits
    covered: list[int] = []
    arrays = []
    for names, vec in factors:
        names = (names,) if isinstance(names, str) else tuple(names)
        qubits = layout.positions(*names)
        vec = np.asarray(vec, dtype=complex)
        if vec.shape[-1:] != (1 << len(qubits),):
            raise ValueError(f"factor on {names} has wrong dimension {vec.shape}")
        covered.extend(qubits)
        arrays.append(vec)
    if sorted(covered) != list(range(n)):
        raise ValueError("factors must cover every qubit exactly once")

    full = arrays[0]
    for vec in arrays[1:]:
        # the Kronecker product vec (x) full: full is the low-order index block
        full = vec[..., :, None] * full[..., None, :]
        full = full.reshape(full.shape[:-2] + (-1,))
    # full is little-endian over covered: its index is one row over those qubits
    return rows_back(full, n, covered).reshape(full.shape)


def move_register_content(vec: np.ndarray, layout_from: RegisterLayout,
                          layout_to: RegisterLayout, rename: dict) -> np.ndarray:
    """Relabel registers of a pure-state vector without touching amplitudes.

    ``rename`` maps old register names to new ones; unmentioned registers keep
    their names.  The returned vector is indexed by ``layout_to``.
    """
    n = layout_from.total_qubits
    if layout_to.total_qubits != n:
        raise ValueError("layouts must have the same qubit count")
    mapping: dict[int, int] = {}
    for name, width in layout_from.registers:
        new = rename.get(name, name)
        src = layout_from.positions(name)
        dst = layout_to.positions(new)
        if len(dst) != width:
            raise ValueError(f"register {name!r} changes width under renaming")
        mapping.update(zip(src, dst))
    # source bit q is target qubit mapping[q]: one row over those qubits
    vec = np.asarray(vec, dtype=complex)
    return rows_back(vec, n, [mapping[q] for q in range(n)]).reshape(vec.shape)
