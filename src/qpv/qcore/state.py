"""Fixed state vectors and product-state assembly.

The package has one state representation, raw arrays: state vectors
(optionally batched) and density matrices, indexed little-endian over a
:class:`~qpv.qcore.layout.RegisterLayout`; an attack strategy's pre-shared
state is either, validated by :func:`~qpv.qcore.ops.check_state`.
"""

from __future__ import annotations

import math

import numpy as np

from .layout import RegisterLayout, rows_back

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
    little-endian over its group's registers in the given order, so naming
    other registers relabels its content.  Groups may interleave arbitrarily
    across the layout.  A factor may carry leading batch axes; they
    broadcast, and the result is a batch of vectors.
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
