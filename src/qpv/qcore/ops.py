"""Operators on named registers: application, tracing, metrics, entropies.

A matrix over registers ``(P, Q, ...)`` is indexed little-endian over the
concatenation of those registers in the given order.  One convention maps
registers to array axes: :func:`~qpv.qcore.layout.rows_first` views a batch
of vectors as matrices whose rows are those registers' qubits.  An apply is
one ``matmul`` on that view, read as one cached gather, and ``apply_steps``
chains applies with one gather between two steps; a partial trace is a
product of two views (or, for a density matrix, a trace over its 2n-qubit view).

The package runs on the raw-array kernels (``apply_steps`` and its one-step
case ``apply_vector_matrix``, ``apply_on_qubits``, ``reduced_outer``,
``conditional_entropy_pure``, ``purified_distance_pure``).  The dense ops on
plain density matrices (``apply_matrix``, ``partial_trace``, ``fidelity``,
``conditional_entropy``, ``dephase_register``) have no caller outside qcore:
they are the reference the kernel tests compare against, fed |v><v| for a
vector v so that no comparison reduces to the kernel's own output, and the
benchmark tracer wraps them.
"""

from __future__ import annotations

import math
import numpy as np

from .layout import RegisterLayout, row_gather, rows_first, step_gather

UNITARY_TOL = 1e-10
EFFECT_TOL = 1e-10
STATE_TOL = 1e-12   # a state's norm, an attack psi's Bell weight on (R, A)
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


CNOT = np.array([[1, 0, 0, 0],   # control = qubit 0, target = qubit 1
                 [0, 0, 0, 1],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0]], dtype=complex)
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


def check_state(data: np.ndarray, dim: int, label: str = "state") -> None:
    """Raise ValueError unless ``data`` is a unit vector of length ``dim``."""
    data = np.asarray(data)
    if data.shape != (dim,):
        raise ValueError(f"{label} must be a vector of length {dim}, not shape {data.shape}")
    norm = np.linalg.norm(data)
    if abs(norm - 1.0) > STATE_TOL:
        raise ValueError(f"{label} has norm {norm}, not 1")


# ---------------------------------------------------------------------------
# the apply kernel
# ---------------------------------------------------------------------------

def _apply_steps(vec: np.ndarray, n: int, steps) -> np.ndarray:
    """The ``(mat, qubits)`` steps in turn on a vector or on each vector of a
    ``(b, 2^n)`` batch; ``mat`` is one matrix or a ``(b, d, d)`` stack, one per
    vector.  Each step is one ``matmul`` on the batch gathered, straight from
    the previous step's order, into the ``rows_first`` order of its qubits."""
    out, prev = np.reshape(vec, (-1, 1 << n)), None
    for mat, qubits in steps:
        qubits, k = tuple(qubits), len(qubits)
        idx = row_gather(n, qubits)[0] if prev is None else step_gather(n, prev, qubits)
        # the product's batch: a 1-row vector times a (b, d, d) stack is b rows
        out = mat @ out.take(idx, axis=1).reshape(len(out), 1 << k, 1 << (n - k))
        out, prev = out.reshape(len(out), 1 << n), qubits
    out = out.take(row_gather(n, prev)[1], axis=1)
    return out[0] if np.ndim(vec) == 1 and all(np.ndim(m) == 2 for m, _ in steps) else out


def _registers_tuple(registers) -> tuple[str, ...]:
    return (registers,) if isinstance(registers, str) else tuple(registers)


def apply_matrix(rho: np.ndarray, layout: RegisterLayout, mat: np.ndarray,
                 registers) -> np.ndarray:
    """M rho M^dagger for a matrix on the named registers of a density matrix.

    In the flattened 2n-qubit view of rho (flat index = row * 2^n + col),
    row qubit q sits at bit n + q and column qubit q at bit q, so M acts on
    the row bits and M* on the column bits.
    """
    registers = _registers_tuple(registers)
    qubits = layout.positions(*registers)
    if mat.shape != (1 << len(qubits),) * 2:
        raise ValueError(f"matrix dimension {mat.shape} does not match registers {registers}")
    n = layout.total_qubits
    flat = _apply_steps(np.reshape(rho, -1), 2 * n,
                        [(mat, [q + n for q in qubits]), (mat.conj(), qubits)])
    return flat.reshape(layout.dim, layout.dim)


def apply_steps(vec: np.ndarray, layout: RegisterLayout, steps) -> np.ndarray:
    """Apply the ``(mat, registers)`` steps, one or more, in turn to a raw
    vector; ``vec`` and each ``mat`` may carry a batch axis (see ``_apply_steps``)."""
    steps = [(mat, layout.positions(*_registers_tuple(regs))) for mat, regs in steps]
    return _apply_steps(vec, layout.total_qubits, steps)


def apply_vector_matrix(vec: np.ndarray, layout: RegisterLayout,
                        mat: np.ndarray, registers) -> np.ndarray:
    """Apply a matrix on the named registers of a raw vector: the one-step
    case of :func:`apply_steps`."""
    return apply_steps(vec, layout, [(mat, registers)])


def apply_on_qubits(vec: np.ndarray, n_qubits: int, gates) -> np.ndarray:
    """Apply a gate sequence, ``(matrix, qubit_indices)`` pairs first to last
    as :func:`compose_on_qubits` takes them, to a raw vector: one chain."""
    return _apply_steps(vec, n_qubits, gates)


def compose_on_qubits(n_qubits: int, gates) -> np.ndarray:
    """Dense matrix of a gate sequence on an ``n_qubits`` system.

    ``gates`` is an iterable of ``(matrix, qubit_indices)`` applied first to
    last.  Intended for small circuits (finale unitaries, teleport blocks).
    """
    # the columns of the running matrix are the batch
    steps = [(np.asarray(mat, dtype=complex), qubits) for mat, qubits in gates]
    eye = np.eye(1 << n_qubits, dtype=complex)
    return np.ascontiguousarray(_apply_steps(eye.T, n_qubits, steps).T) if steps else eye


# ---------------------------------------------------------------------------
# partial trace and reductions
# ---------------------------------------------------------------------------

def _kept_qubits(layout: RegisterLayout, keep) -> list[int]:
    """Qubits of the kept registers in the order of ``keep``; an unknown
    name is a KeyError, keeping nothing a ValueError."""
    keep = _registers_tuple(keep)
    if not keep:
        raise ValueError("must keep at least one register")
    return layout.positions(*keep)


def reduced_outer(vec_left: np.ndarray, vec_right: np.ndarray,
                  layout: RegisterLayout, keep) -> np.ndarray:
    """Partial trace of |left><right| onto the kept registers, as a matrix
    indexed little-endian over them in the order of ``keep``, matching how
    :func:`apply_matrix` embeds operators on those registers.  Either side
    may be a ``(b, 2^n)`` batch; the result is then a ``(b, d, d)`` stack,
    one matrix per row.
    """
    rows = _kept_qubits(layout, keep)
    n = layout.total_qubits
    left = rows_first(vec_left, n, rows)
    right = rows_first(vec_right, n, rows)
    out = left @ right.conj().transpose(0, 2, 1)
    return out[0] if np.ndim(vec_left) == 1 and np.ndim(vec_right) == 1 else out


def partial_trace(rho: np.ndarray, layout: RegisterLayout, keep) -> np.ndarray:
    """Partial trace of a density matrix onto the kept registers, indexed
    little-endian over them in layout order.

    In the 2n-qubit view of rho (row qubit q on bit n + q, column qubit q on
    bit q), the kept column and row qubits index the rows and the traced
    column and row qubits the columns; the result sums the entries whose
    traced row and column qubits agree.
    """
    rows = sorted(_kept_qubits(layout, keep))
    n = layout.total_qubits
    k, t = 1 << len(rows), 1 << (n - len(rows))
    m = rows_first(rho, 2 * n, rows + [q + n for q in rows])
    return m.reshape(k, k, t, t).trace(axis1=2, axis2=3)


# ---------------------------------------------------------------------------
# fidelity, purified distance, entropies
# ---------------------------------------------------------------------------

def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a[..., i] b[..., i] of each row pair (no conjugate), broadcast
    over the leading axes: one BLAS dot per row, in the order and with the
    strides ``np.dot`` and ``np.vdot`` use on that row alone."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def expectation(vec: np.ndarray, rho: np.ndarray):
    """<v|rho|v>, real part, for a vector and a matrix of matching dimension
    (a float), or for each matrix of a ``(b, d, d)`` stack (an array)."""
    value = _row_dot(vec.conj(), rho @ vec).real
    return float(value) if np.ndim(rho) == 2 else value


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Root fidelity tr sqrt(sqrt(sigma) rho sqrt(sigma)) of two density
    matrices."""
    if np.shape(rho) != np.shape(sigma):
        raise ValueError("states have different dimensions")
    s = psd_sqrt(sigma)
    vals = np.clip(np.linalg.eigvalsh(s @ rho @ s), 0.0, None)
    return float(min(np.sum(np.sqrt(vals)), 1.0))


def purified_distance_pure(u: np.ndarray, v: np.ndarray):
    """sqrt(1 - |<u|v>|^2) of two unit vectors (a float), or of each row pair
    of two batches (an array)."""
    c = _row_dot(u.conj(), v)
    # hypot is abs() of a complex scalar; np.abs rounds apart
    f = np.hypot(c.real, c.imag)
    dist = np.sqrt(np.maximum(0.0, 1.0 - f * f))
    return float(dist) if dist.ndim == 0 else dist


def _spectral_entropy(vals: np.ndarray) -> np.ndarray:
    """Base-2 entropy of spectra along the last axis; eigenvalues at or
    below EIG_ZERO contribute zero."""
    vals = np.where(vals > EIG_ZERO, vals, 1.0)
    return -np.sum(vals * np.log2(vals), axis=-1)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Base-2 entropy of a density matrix; eigenvalues below 1e-14 contribute
    zero."""
    return float(_spectral_entropy(np.linalg.eigvalsh(rho)))


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
    m = rows_first(np.asarray(vecs, dtype=complex), layout.total_qubits, rows)
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
        m = rows_first(vecs, layout.total_qubits, layout.positions(*keep))
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


def conditional_entropy(rho: np.ndarray, layout: RegisterLayout, target,
                        side=()) -> float:
    """H(target | side) = H(target, side) - H(side), base 2, of a density
    matrix."""
    target = _registers_tuple(target)
    side = _registers_tuple(side)
    if set(target) & set(side):
        raise ValueError("target and side registers overlap")
    h_joint = von_neumann_entropy(partial_trace(rho, layout, target + side))
    if not layout.positions(*side):
        return h_joint
    return h_joint - von_neumann_entropy(partial_trace(rho, layout, side))


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


def dephase_register(rho: np.ndarray, layout: RegisterLayout, register: str,
                     basis: int) -> np.ndarray:
    """Measure a 1-qubit register of a density matrix in the given basis and
    forget the outcome.

    Returns the hybrid state sum_z P_z rho P_z; the classical outcome lives in
    the measured register's slot.
    """
    if layout.width(register) != 1:
        raise ValueError("dephasing is defined for 1-qubit registers")
    return sum(apply_matrix(rho, layout, proj, register)
               for proj in basis_projectors(basis))
