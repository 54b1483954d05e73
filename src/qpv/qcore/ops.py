"""Operators on named registers: application, tracing, metrics, entropies.

Operators are embedded by index permutation on the tensor factors of the
state array; state data is never reordered.  A matrix over registers
``(P, Q, ...)`` is indexed little-endian over the concatenation of those
registers in the given order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layout import RegisterLayout
from .state import QuantumState, mixed_state

UNITARY_TOL = 1e-10
EFFECT_TOL = 1e-10
EIG_ZERO = 1e-14

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def kron_le(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product with the FIRST argument on the low-order bits."""
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(op, out)
    return out


def controlled(gate: np.ndarray, control_first: bool = True) -> np.ndarray:
    """Controlled gate on (control, target) qubits; control is the low-order
    qubit when ``control_first``."""
    d = gate.shape[0]
    out = np.eye(2 * d, dtype=complex)
    if control_first:
        idx = np.arange(d) * 2 + 1
    else:
        idx = np.arange(d) + d
    out[np.ix_(idx, idx)] = gate
    return out


CNOT = controlled(X)  # control = qubit 0, target = qubit 1
SWAP2 = np.array([[1, 0, 0, 0],
                  [0, 0, 1, 0],
                  [0, 1, 0, 0],
                  [0, 0, 0, 1]], dtype=complex)


def check_unitary(mat: np.ndarray, label: str = "matrix") -> None:
    """Raise ValueError unless the square matrix is unitary to UNITARY_TOL."""
    err = np.linalg.norm(mat.conj().T @ mat - np.eye(mat.shape[0]))
    if err > UNITARY_TOL:
        raise ValueError(f"{label} is not unitary (deviation {err:.2e})")


def check_effect(mat: np.ndarray, label: str = "matrix") -> None:
    """Raise ValueError unless the square matrix is an effect, 0 <= E <= I."""
    if np.max(np.abs(mat - mat.conj().T)) > EFFECT_TOL:
        raise ValueError(f"{label} is not Hermitian")
    vals = np.linalg.eigvalsh(mat)
    if vals.min() < -EFFECT_TOL or vals.max() > 1 + EFFECT_TOL:
        raise ValueError(f"{label} is not an effect (0 <= E <= I)")


@dataclass(frozen=True)
class Unitary:
    matrix: np.ndarray
    acts_on: tuple[str, ...]

    def __init__(self, matrix, acts_on):
        acts_on = (acts_on,) if isinstance(acts_on, str) else tuple(acts_on)
        matrix = np.asarray(matrix, dtype=complex)
        d = matrix.shape[0]
        if matrix.ndim != 2 or matrix.shape != (d, d) or d & (d - 1):
            raise ValueError("unitary must be square with power-of-two dimension")
        check_unitary(matrix)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "acts_on", acts_on)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Povm:
    elements: tuple[np.ndarray, ...]
    acts_on: tuple[str, ...]

    def __init__(self, elements, acts_on):
        acts_on = (acts_on,) if isinstance(acts_on, str) else tuple(acts_on)
        elems = tuple(np.asarray(e, dtype=complex) for e in elements)
        d = elems[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for e in elems:
            if e.shape != (d, d):
                raise ValueError("POVM elements must share one dimension")
            check_effect(e, "POVM element")
            total = total + e
        if np.max(np.abs(total - np.eye(d))) > EFFECT_TOL:
            raise ValueError("POVM elements do not sum to the identity")
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "acts_on", acts_on)


# ---------------------------------------------------------------------------
# raw index-permutation machinery
# ---------------------------------------------------------------------------

def _apply_to_vector(vec: np.ndarray, n: int, mat: np.ndarray,
                     qubits: list[int]) -> np.ndarray:
    w = len(qubits)
    if w == 0:
        return vec * mat[0, 0]
    t = vec.reshape([2] * n)
    mt = mat.reshape([2] * (2 * w))
    # reshaped mat axes: (out_{w-1}..out_0, in_{w-1}..in_0); the state axis
    # of local qubit k is n-1-qubits[k]
    in_axes = [n - 1 - qubits[w - 1 - j] for j in range(w)]
    t = np.tensordot(mt, t, axes=(list(range(w, 2 * w)), in_axes))
    dest = [n - 1 - qubits[w - 1 - j] for j in range(w)]
    t = np.moveaxis(t, list(range(w)), dest)
    return np.ascontiguousarray(t).reshape(-1)


def _registers_tuple(registers) -> tuple[str, ...]:
    return (registers,) if isinstance(registers, str) else tuple(registers)


def _sandwich_raw(rho: np.ndarray, n: int, mat: np.ndarray,
                  qubits: list[int]) -> np.ndarray:
    """M rho M^dagger on a density matrix, via the flattened 2n-bit view.

    Flat index = row * 2^n + col, so row qubit q sits at bit n+q and column
    qubit q at bit q.
    """
    dim = 1 << n
    flat = rho.reshape(-1)
    flat = _apply_to_vector(flat, 2 * n, mat, [q + n for q in qubits])
    flat = _apply_to_vector(flat, 2 * n, mat.conj(), qubits)
    return flat.reshape(dim, dim)


def apply_matrix_raw(state: QuantumState, mat: np.ndarray, registers) -> np.ndarray:
    """Apply a matrix on the named registers without normalizing/validating.

    Returns a vector for pure input and a density matrix for mixed input
    (rho -> M rho M^dagger).
    """
    registers = _registers_tuple(registers)
    qubits = state.layout.positions(*registers)
    if mat.shape != (1 << len(qubits),) * 2:
        raise ValueError(f"matrix dimension {mat.shape} does not match registers {registers}")
    n = state.layout.total_qubits
    if state.kind == "pure":
        return _apply_to_vector(np.asarray(state.data), n, mat, qubits)
    return _sandwich_raw(np.asarray(state.data), n, mat, qubits)


def apply_matrix(state: QuantumState, mat: np.ndarray, registers) -> QuantumState:
    """Trace-preserving matrix application returning a validated state."""
    out = apply_matrix_raw(state, mat, registers)
    return QuantumState(state.layout, state.kind, out)


def apply(state: QuantumState, u: Unitary) -> QuantumState:
    """Apply a unitary on its registers, identity elsewhere."""
    return apply_matrix(state, u.matrix, u.acts_on)


def apply_vector_matrix(vec: np.ndarray, layout: RegisterLayout,
                        mat: np.ndarray, registers) -> np.ndarray:
    """Raw-vector variant of :func:`apply_matrix` for hot loops."""
    qubits = layout.positions(*_registers_tuple(registers))
    return _apply_to_vector(vec, layout.total_qubits, mat, qubits)


def apply_on_qubits(vec: np.ndarray, n_qubits: int, mat: np.ndarray,
                    qubit_indices) -> np.ndarray:
    """Apply a small matrix on explicit qubit positions of a raw vector."""
    return _apply_to_vector(vec, n_qubits, mat, list(qubit_indices))


def compose_on_qubits(n_qubits: int, gates) -> np.ndarray:
    """Dense matrix of a gate sequence on an ``n_qubits`` system.

    ``gates`` is an iterable of ``(matrix, qubit_indices)`` applied first to
    last.  Intended for small circuits (finale unitaries, teleport blocks).
    """
    dim = 1 << n_qubits
    out = np.eye(dim, dtype=complex)
    for mat, qubits in gates:
        flat = out.reshape(-1)
        # rows of the matrix live on bits n_qubits..2*n_qubits-1
        flat = _apply_to_vector(flat, 2 * n_qubits, np.asarray(mat, dtype=complex),
                                [q + n_qubits for q in qubits])
        out = flat.reshape(dim, dim)
    return out


# ---------------------------------------------------------------------------
# partial trace and reductions
# ---------------------------------------------------------------------------

def _keep_ordered(layout: RegisterLayout, keep) -> list[str]:
    keep = _registers_tuple(keep)
    unknown = set(keep) - set(layout.names)
    if unknown:
        raise KeyError(f"unknown registers {sorted(unknown)}")
    if not keep:
        raise ValueError("must keep at least one register")
    return [n for n in layout.names if n in set(keep)]


def reduced_outer(vec_left: np.ndarray, vec_right: np.ndarray,
                  layout: RegisterLayout, keep, order: str = "layout") -> np.ndarray:
    """Partial trace of |left><right| onto the kept registers, as a matrix.

    With ``order='layout'`` the result is indexed little-endian over the
    kept registers in layout order; ``order='given'`` uses the order of the
    ``keep`` tuple instead, matching how :func:`apply_matrix` embeds
    operators on those registers.
    """
    keep = _registers_tuple(keep)
    _keep_ordered(layout, keep)  # validates names
    kept_given = layout.positions(*keep)
    n = layout.total_qubits
    traced = [q for q in range(n) if q not in set(kept_given)]
    tl = vec_left.reshape([2] * n)
    tr = vec_right.conj().reshape([2] * n)
    tr_axes = [n - 1 - q for q in traced]
    out = np.tensordot(tl, tr, axes=(tr_axes, tr_axes))
    k = len(kept_given)
    # remaining axes hold the kept qubits in descending global order
    current = sorted(kept_given, reverse=True)
    target = sorted(kept_given) if order == "layout" else kept_given
    perm = [current.index(target[k - 1 - j]) for j in range(k)]
    if perm != list(range(k)):
        out = out.transpose(perm + [k + p for p in perm])
    return out.reshape(1 << k, 1 << k)


def reduce_density_raw(rho: np.ndarray, layout: RegisterLayout, keep,
                       order: str = "layout") -> np.ndarray:
    """Partial trace of a raw density matrix onto the kept registers."""
    keep = _registers_tuple(keep)
    _keep_ordered(layout, keep)
    kept_given = layout.positions(*keep)
    n = layout.total_qubits
    traced = set(range(n)) - set(kept_given)
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    row = {q: letters[i] for i, q in enumerate(range(n))}
    col = {}
    nxt = n
    for q in range(n):
        if q in traced:
            col[q] = row[q]
        else:
            col[q] = letters[nxt]
            nxt += 1
    target = sorted(kept_given) if order == "layout" else kept_given
    ordered = list(reversed(target))
    # axis j of the reshaped array is row qubit n-1-j, then col qubit n-1-j
    row_sub = "".join(row[n - 1 - j] for j in range(n))
    col_sub = "".join(col[n - 1 - j] for j in range(n))
    out_sub = ("".join(row[q] for q in ordered) + "".join(col[q] for q in ordered))
    t = np.asarray(rho).reshape([2] * (2 * n))
    out = np.einsum(f"{row_sub}{col_sub}->{out_sub}", t)
    k = len(kept_given)
    return out.reshape(1 << k, 1 << k)


def partial_trace_raw(state: QuantumState, keep) -> tuple[np.ndarray, RegisterLayout]:
    keep_ordered = _keep_ordered(state.layout, keep)
    sub_layout = state.layout.restricted(*keep_ordered)
    if state.kind == "pure":
        vec = np.asarray(state.data)
        return reduced_outer(vec, vec, state.layout, keep_ordered), sub_layout
    return reduce_density_raw(np.asarray(state.data), state.layout, keep_ordered), sub_layout


def partial_trace(state: QuantumState, keep) -> QuantumState:
    """Reduced density matrix on the kept registers (layout order)."""
    rho, sub_layout = partial_trace_raw(state, keep)
    return mixed_state(sub_layout, rho)


# ---------------------------------------------------------------------------
# fidelity, purified distance, entropies
# ---------------------------------------------------------------------------

def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def expectation(vec: np.ndarray, rho: np.ndarray) -> float:
    """<v|rho|v>, real part, for a vector and a matrix of matching dimension."""
    return float(np.vdot(vec, rho @ vec).real)


def fidelity(rho: QuantumState, sigma: QuantumState) -> float:
    """Root fidelity tr sqrt(sqrt(sigma) rho sqrt(sigma)); equals |<psi|phi>|
    on pure pairs."""
    if rho.layout.dim != sigma.layout.dim:
        raise ValueError("states have different dimensions")
    if rho.kind == "pure" and sigma.kind == "pure":
        return float(abs(np.vdot(rho.data, sigma.data)))
    if rho.kind == "pure":
        return math.sqrt(max(expectation(rho.data, sigma.density()), 0.0))
    if sigma.kind == "pure":
        return math.sqrt(max(expectation(sigma.data, rho.density()), 0.0))
    s = psd_sqrt(np.asarray(sigma.data))
    inner = s @ np.asarray(rho.data) @ s
    vals = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(min(np.sum(np.sqrt(vals)), 1.0))


def purified_distance(rho: QuantumState, sigma: QuantumState) -> float:
    f = fidelity(rho, sigma)
    return math.sqrt(max(0.0, 1.0 - f * f))


def purified_distance_pure(u: np.ndarray, v: np.ndarray) -> float:
    f = abs(np.vdot(u, v))
    return math.sqrt(max(0.0, 1.0 - f * f))


def _spectral_entropy(vals: np.ndarray) -> np.ndarray:
    """Base-2 entropy of spectra along the last axis; eigenvalues at or
    below EIG_ZERO contribute zero."""
    vals = np.where(vals > EIG_ZERO, vals, 1.0)
    return -np.sum(vals * np.log2(vals), axis=-1)


def von_neumann_entropy(state: QuantumState) -> float:
    """Base-2 entropy; eigenvalues below 1e-14 contribute zero."""
    if state.kind == "pure":
        return 0.0
    return float(_spectral_entropy(np.linalg.eigvalsh(np.asarray(state.data))))


def _as_matrices(vecs: np.ndarray, layout: RegisterLayout, kept: list[int]) -> np.ndarray:
    """A (b, 2^n) batch of vectors as (b, 2^k, 2^(n-k)) matrices; rows are
    indexed little-endian over the ``kept`` qubits in the given order."""
    n = layout.total_qubits
    rest = [q for q in range(n) if q not in set(kept)]
    # with the batch axis first, qubit q sits on axis n - q
    axes = [0] + [n - q for q in reversed(kept)] + [n - q for q in reversed(rest)]
    t = vecs.reshape((-1,) + (2,) * n).transpose(axes)
    return t.reshape(len(vecs), 1 << len(kept), 1 << len(rest))


def branch_matrices(vecs: np.ndarray, layout: RegisterLayout, register: str,
                    basis: int, keep) -> np.ndarray:
    """Branches psi_z = (<b_z|_register x I) psi of a (b, 2^n) batch of pure
    vectors, measured in the computational (0) or Hadamard (1) basis.

    Returns (b, 2, 2^k, 2^rest) matrices: rows are indexed little-endian over
    the ``keep`` registers in the given order, columns over the other qubits,
    so that C_z = M_z M_z^dagger is the reduced branch operator on ``keep``.
    """
    if layout.width(register) != 1:
        raise ValueError("dephasing is defined for 1-qubit registers")
    rows = layout.positions(register, *keep)
    # the register on the lowest row bit, then projected out
    m = _as_matrices(np.asarray(vecs, dtype=complex).reshape(-1, layout.dim), layout, rows)
    m = m.reshape(len(m), -1, 2, m.shape[-1])
    bra = np.array(BASIS_VECTORS[basis]).conj()
    return np.einsum("zr,bkrt->bzkt", bra, m)


def _reduced_entropy_pure(vecs: np.ndarray, layout: RegisterLayout, keep,
                          dephase) -> np.ndarray:
    """S(rho_keep) per vector, after dephasing ``dephase = (register, basis)``
    when that register is kept (elsewhere it leaves rho_keep unchanged)."""
    if not layout.positions(*keep):
        return np.zeros(len(vecs))
    if dephase is not None and dephase[0] in keep:
        # dephased rho_keep is the direct sum over z of the branch operators C_z
        register, basis = dephase
        m = branch_matrices(vecs, layout, register, basis,
                            [k for k in keep if k != register])
    else:
        m = _as_matrices(vecs, layout, layout.positions(*keep))
    # M M^dagger and M^dagger M share their nonzero spectrum: take the smaller
    if m.shape[-2] <= m.shape[-1]:
        gram = np.einsum("...kt,...jt->...kj", m, m.conj())
    else:
        gram = np.einsum("...kt,...kj->...tj", m.conj(), m)
    vals = np.linalg.eigvalsh(gram).reshape(len(vecs), -1)
    return _spectral_entropy(vals)


def conditional_entropy_pure(vecs: np.ndarray, layout: RegisterLayout, target,
                             side=(), dephase=None) -> np.ndarray:
    """H(target | side), base 2, of each pure vector in a (b, 2^n) batch.

    ``dephase = (register, basis)`` first measures that 1-qubit register in
    the computational (0) or Hadamard (1) basis and forgets the outcome, as
    :func:`dephase_register` does, without building a density matrix.
    """
    target = _registers_tuple(target)
    side = _registers_tuple(side)
    if set(target) & set(side):
        raise ValueError("target and side registers overlap")
    vecs = np.asarray(vecs, dtype=complex).reshape(-1, layout.dim)
    return (_reduced_entropy_pure(vecs, layout, target + side, dephase)
            - _reduced_entropy_pure(vecs, layout, side, dephase))


def conditional_entropy(state: QuantumState, target, side=()) -> float:
    """H(target | side) = H(target, side) - H(side), base 2."""
    target = _registers_tuple(target)
    side = _registers_tuple(side)
    if set(target) & set(side):
        raise ValueError("target and side registers overlap")
    h_joint = von_neumann_entropy(partial_trace(state, target + side))
    if not side or all(state.layout.width(s) == 0 for s in side):
        return h_joint
    h_side = von_neumann_entropy(partial_trace(state, side))
    return h_joint - h_side


def binary_entropy(p: float) -> float:
    if p < 0.0 or p > 1.0:
        raise ValueError(f"probability {p} outside [0,1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * math.log2(p) - (1 - p) * math.log2(1 - p))


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

BASIS_VECTORS = {
    0: (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)),
    1: (np.array([1.0, 1.0], dtype=complex) / math.sqrt(2),
        np.array([1.0, -1.0], dtype=complex) / math.sqrt(2)),
}


def basis_projectors(basis: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank-1 projectors of the computational (0) or Hadamard (1) basis."""
    v0, v1 = BASIS_VECTORS[basis]
    return np.outer(v0, v0.conj()), np.outer(v1, v1.conj())


def effect_probability(state: QuantumState, effect: np.ndarray, registers) -> float:
    """tr(E rho) with E embedded on the named registers."""
    if state.kind == "pure":
        vec = np.asarray(state.data)
        out = apply_vector_matrix(vec, state.layout, effect, registers)
        return float(np.vdot(vec, out).real)
    n = state.layout.total_qubits
    qubits = state.layout.positions(*_registers_tuple(registers))
    rho = np.asarray(state.data)
    flat = _apply_to_vector(rho.reshape(-1), 2 * n, effect, [q + n for q in qubits])
    return float(np.trace(flat.reshape(rho.shape)).real)


def povm_probabilities(state: QuantumState, povm: Povm) -> np.ndarray:
    return np.array([effect_probability(state, e, povm.acts_on)
                     for e in povm.elements])


def measure(state: QuantumState, povm: Povm, rng):
    """Sample an outcome (Born rule) and return (index, normalized post-state).

    ``rng`` is a seed or a numpy Generator.
    """
    from .rng import as_generator
    rng = as_generator(rng)
    probs = np.clip(povm_probabilities(state, povm), 0.0, None)
    probs = probs / probs.sum()
    outcome = int(rng.choice(len(probs), p=probs))
    kraus = psd_sqrt(np.asarray(povm.elements[outcome]))
    post = apply_matrix_raw(state, kraus, povm.acts_on)
    if state.kind == "pure":
        post = post / np.linalg.norm(post)
        return outcome, QuantumState(state.layout, "pure", post)
    post = post / np.trace(post).real
    return outcome, QuantumState(state.layout, "mixed", post)


def dephase_register(state: QuantumState, register: str, basis: int) -> QuantumState:
    """Measure a 1-qubit register in the given basis and forget the outcome.

    Returns the hybrid state sum_z P_z rho P_z; the classical outcome lives in
    the measured register's slot.
    """
    if state.layout.width(register) != 1:
        raise ValueError("dephasing is defined for 1-qubit registers")
    n = state.layout.total_qubits
    qubits = state.layout.positions(register)
    rho = state.density()
    out = np.zeros_like(rho)
    for proj in basis_projectors(basis):
        out = out + _sandwich_raw(rho, n, proj, qubits)
    return QuantumState(state.layout, "mixed", out)
