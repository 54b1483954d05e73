import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpv import qcore as qc

SQ2 = 1.0 / math.sqrt(2)
QUBIT = qc.RegisterLayout([("Q", 1)])
BELL_LAYOUT = qc.RegisterLayout([("R", 1), ("A", 1)])


def density(vec):
    """|v><v|, the density matrix the dense reference ops take."""
    vec = np.asarray(vec, dtype=complex)
    return np.outer(vec, vec.conj())


BELL = density(qc.BELL_VECTOR)


def bb84(index):
    """One of |0>, |1>, |+>, |-> on the single-qubit register Q, as a density
    matrix."""
    return density(qc.BB84_VECTORS[index])


def embed_reference(mat, layout, regs):
    """Independent dense embedding by explicit bit bookkeeping (slow oracle)."""
    qubits = layout.positions(*regs)
    n = layout.total_qubits
    dim = 1 << n
    w = len(qubits)
    mask = sum(1 << q for q in qubits)
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        loc_in = sum(((i >> q) & 1) << k for k, q in enumerate(qubits))
        rest = i & ~mask
        for loc_out in range(1 << w):
            j = rest | sum(((loc_out >> k) & 1) << q for k, q in enumerate(qubits))
            out[j, i] += mat[loc_out, loc_in]
    return out


def trace_reference(rho, layout, keep):
    """Independent partial trace by explicit bit bookkeeping (slow oracle),
    indexed little-endian over the ``keep`` registers in the given order."""
    kept = layout.positions(*keep)
    mask = sum(1 << q for q in kept)

    def local(i):
        return sum(((i >> q) & 1) << b for b, q in enumerate(kept))

    def spread(loc):
        return sum(((loc >> b) & 1) << q for b, q in enumerate(kept))

    out = np.zeros((1 << len(kept),) * 2, dtype=complex)
    for i in range(layout.dim):
        for loc in range(1 << len(kept)):
            out[local(i), loc] += rho[i, (i & ~mask) | spread(loc)]
    return out


# ---------------------------------------------------------------------------
# layout
# ---------------------------------------------------------------------------

def test_layout_positions_and_widths():
    lay = qc.RegisterLayout([("R", 1), ("A", 2), ("At", 0), ("B", 1)])
    assert lay.total_qubits == 4
    assert lay.positions("A") == [1, 2]
    assert lay.positions("B", "R") == [3, 0]
    assert lay.positions("At") == []
    assert lay.width("At") == 0
    assert lay.subdim("A", "B") == 8
    assert lay.subdim() == 1


@pytest.mark.parametrize("lookup", ["width", "positions", "subdim"])
def test_layout_unknown_register_is_a_key_error(lookup):
    lay = qc.RegisterLayout([("R", 1), ("A", 2)])
    with pytest.raises(KeyError, match="unknown register 'Z'"):
        getattr(lay, lookup)("Z")


@pytest.mark.parametrize("registers", [
    [("R", 1), ("A", 2), ("At", 0), ("B", 1)], [("x", 0)], [], [("a", 16)]])
def test_layout_fields_derive_from_registers(registers):
    """names, total_qubits and dim are set once at construction; they are
    what the registers give, and take no part in equality or hashing."""
    lay = qc.RegisterLayout(registers)
    assert lay.names == tuple(name for name, _ in registers)
    assert lay.total_qubits == sum(width for _, width in registers)
    assert lay.dim == 2 ** lay.total_qubits
    twin = qc.RegisterLayout(tuple(registers))
    assert twin == lay and hash(twin) == hash(lay)
    assert repr(lay) == f"RegisterLayout(registers={lay.registers!r})"
    for attr in ("registers", "names", "total_qubits", "dim"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(lay, attr, getattr(lay, attr))


def test_layout_rejects_duplicates_and_cap():
    with pytest.raises(ValueError):
        qc.RegisterLayout([("R", 1), ("R", 1)])
    with pytest.raises(ValueError):
        qc.RegisterLayout([("big", qc.MAX_QUBITS + 1)])


# ---------------------------------------------------------------------------
# bell / bb84 construction
# ---------------------------------------------------------------------------

def test_bell_state_amplitudes():
    np.testing.assert_allclose(qc.BELL_VECTOR, [SQ2, 0, 0, SQ2], atol=1e-15)


def test_bell_reduced_is_maximally_mixed():
    for keep in ("R", "A"):
        rho = qc.partial_trace(BELL, BELL_LAYOUT, keep)
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-14)


def test_bell_self_fidelity():
    assert qc.fidelity(BELL, BELL) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("index,expect", [
    (0, [1, 0]), (1, [0, 1]), (2, [SQ2, SQ2]), (3, [SQ2, -SQ2]),
])
def test_bb84_states(index, expect):
    np.testing.assert_allclose(qc.BB84_VECTORS[index], expect, atol=1e-15)


def test_bb84_overlap():
    a, b = qc.BB84_VECTORS[0], qc.BB84_VECTORS[2]
    assert abs(np.vdot(a, b)) == pytest.approx(SQ2, abs=1e-15)


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------

def test_apply_identity_returns_same_state():
    lay = qc.RegisterLayout([("P", 2)])
    rho = qc.random_pure_state(lay, qc.stream(1))
    out = qc.apply_matrix(rho, lay, np.eye(4), "P")
    np.testing.assert_allclose(out, rho, atol=1e-15)


def test_apply_x_flips():
    out = qc.apply_matrix(bb84(0), QUBIT, qc.X, "Q")
    np.testing.assert_allclose(out, bb84(1), atol=1e-15)


def test_apply_circuit_builds_bell():
    s = density(np.eye(4)[0])
    s = qc.apply_matrix(s, BELL_LAYOUT, qc.H, "R")
    s = qc.apply_matrix(s, BELL_LAYOUT, qc.CNOT, ("R", "A"))
    assert qc.expectation(qc.BELL_VECTOR, s) == pytest.approx(1.0, abs=1e-12)


def test_apply_norm_preserved_and_unknown_register():
    lay = qc.RegisterLayout([("P", 2), ("Q", 1)])
    rho = qc.random_pure_state(lay, qc.stream(3))
    u = qc.haar_random_unitary(4, qc.stream(4))
    out = qc.apply_matrix(rho, lay, u, "P")
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(KeyError):
        qc.apply_matrix(rho, lay, qc.X, "nope")


@pytest.mark.parametrize("regs", [("A",), ("C",), ("A", "C"), ("C", "A"), ("B", "A")])
def test_apply_matches_reference_embedding(regs):
    lay = qc.RegisterLayout([("A", 1), ("B", 1), ("C", 1)])
    rho = qc.random_pure_state(lay, qc.stream(10, regs))
    dim = 1 << len(lay.positions(*regs))
    u = qc.haar_random_unitary(dim, qc.stream(11, regs))
    full = embed_reference(u, lay, regs)
    np.testing.assert_allclose(qc.apply_matrix(rho, lay, u, regs),
                               full @ rho @ full.conj().T, atol=1e-12)


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

def test_partial_trace_product_state():
    lay = qc.RegisterLayout([("P", 1), ("Q", 1)])
    phi = np.array([0.6, 0.8j])
    chi = np.array([SQ2, -SQ2])
    rho = qc.partial_trace(density(qc.assemble_raw(lay, [("P", phi), ("Q", chi)])), lay, "P")
    np.testing.assert_allclose(rho, np.outer(phi, phi.conj()), atol=1e-14)


def test_partial_trace_keep_everything():
    np.testing.assert_allclose(qc.partial_trace(BELL, BELL_LAYOUT, ("R", "A")), BELL,
                               atol=1e-14)


def test_partial_trace_requires_registers():
    with pytest.raises(ValueError):
        qc.partial_trace(BELL, BELL_LAYOUT, ())


def test_partial_trace_linearity():
    lay = qc.RegisterLayout([("A", 1), ("B", 1)])
    r1 = qc.random_density_matrix(4, qc.stream(22))
    r2 = qc.random_density_matrix(4, qc.stream(23))
    lam = 0.3
    lhs = qc.partial_trace(lam * r1 + (1 - lam) * r2, lay, "A")
    rhs = (lam * qc.partial_trace(r1, lay, "A")
           + (1 - lam) * qc.partial_trace(r2, lay, "A"))
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)


@st.composite
def kernel_cases(draw):
    """Up to 7 qubits in up to five registers, zero widths allowed; an
    ordered choice of registers to act on or keep; a batch size; a seed."""
    widths = draw(st.lists(st.integers(0, 3), min_size=1, max_size=5)
                  .filter(lambda ws: sum(ws) <= 7))
    layout = qc.RegisterLayout([(f"G{i}", w) for i, w in enumerate(widths)])
    regs = tuple(draw(st.permutations(layout.names))[:draw(st.integers(1, len(widths)))])
    return layout, regs, draw(st.integers(1, 3)), draw(st.integers(0, 2 ** 16))


def _ginibre(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@given(kernel_cases())
@settings(max_examples=60, deadline=None)
def test_apply_and_trace_kernels_match_bit_bookkeeping_oracles(case):
    layout, regs, b, seed = case
    rng = qc.stream(seed, "kernel")
    n, d = layout.total_qubits, layout.subdim(*regs)
    qubits = layout.positions(*regs)
    vecs = np.stack([qc.random_unit_vector(layout.dim, rng) for _ in range(b)])
    mats = _ginibre(rng, b, d, d)
    full = embed_reference(mats[0], layout, regs)

    assert np.array_equal(rows_back_reference(qc.layout.rows_first(vecs, n, qubits),
                                              n, qubits), vecs)
    # apply: pure, mixed, a composed circuit, and a batch with one matrix each
    np.testing.assert_allclose(qc.apply_vector_matrix(vecs[0], layout, mats[0], regs),
                               full @ vecs[0], atol=1e-12)
    rho = qc.random_density_matrix(layout.dim, rng)
    u = qc.haar_random_unitary(d, rng)
    full_u = embed_reference(u, layout, regs)
    np.testing.assert_allclose(qc.apply_matrix(rho, layout, u, regs),
                               full_u @ rho @ full_u.conj().T, atol=1e-12)
    back = tuple(reversed(regs))
    circuit = qc.compose_on_qubits(n, [(mats[0], qubits), (mats[-1], layout.positions(*back))])
    np.testing.assert_allclose(circuit, embed_reference(mats[-1], layout, back) @ full,
                               atol=1e-12)
    batched = qc.apply_vector_matrix(vecs, layout, mats, regs)
    shared = qc.apply_vector_matrix(vecs, layout, mats[0], regs)
    assert batched.shape == shared.shape == vecs.shape
    for vec, mat, out, out_shared in zip(vecs, mats, batched, shared):
        np.testing.assert_allclose(out, embed_reference(mat, layout, regs) @ vec, atol=1e-12)
        assert np.array_equal(out, qc.apply_vector_matrix(vec, layout, mat, regs))
        assert np.array_equal(out_shared, qc.apply_vector_matrix(vec, layout, mats[0], regs))

    # trace: |left><right| in both orders, and density matrices of rank 1 and
    # full rank
    in_layout_order = tuple(name for name in layout.names if name in regs)
    outer = np.outer(vecs[0], vecs[-1].conj())
    np.testing.assert_allclose(qc.reduced_outer(vecs[0], vecs[-1], layout, regs),
                               trace_reference(outer, layout, regs), atol=1e-12)
    np.testing.assert_allclose(qc.reduced_outer(vecs[0], vecs[-1], layout, in_layout_order),
                               trace_reference(outer, layout, in_layout_order), atol=1e-12)
    for state in (density(vecs[0]), rho):
        np.testing.assert_allclose(qc.partial_trace(state, layout, regs),
                                   trace_reference(state, layout, in_layout_order),
                                   atol=1e-12)
    # a batch traces to the stack of its rows' reductions
    stack = qc.reduced_outer(vecs, vecs[::-1], layout, regs)
    assert stack.shape == (b, d, d)
    for row, left, right in zip(stack, vecs, vecs[::-1]):
        assert np.array_equal(row, qc.reduced_outer(left, right, layout, regs))


def rows_first_reference(vecs, n, rows):
    """rows_first by index bookkeeping: row bit k is qubit rows[k]; the other
    qubits index the columns, lowest qubit most significant."""
    cols = [q for q in range(n) if q not in rows]
    out = np.empty((len(vecs), 1 << len(rows), 1 << len(cols)), dtype=vecs.dtype)
    for r in range(1 << len(rows)):
        for c in range(1 << len(cols)):
            i = sum(((r >> k) & 1) << q for k, q in enumerate(rows))
            i += sum(((c >> (len(cols) - 1 - k)) & 1) << q for k, q in enumerate(cols))
            out[:, r, c] = vecs[:, i]
    return out


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.permutations(range(n)), st.integers(0, n), st.integers(0, 2 ** 16))))
@settings(max_examples=60, deadline=None)
def test_cached_row_permutation_matches_index_reference(case):
    n, perm, k, seed = case
    vecs = _ginibre(qc.stream(seed, "rows"), 2, 1 << n)
    rows = list(perm[:k])
    expected = rows_first_reference(vecs, n, rows)
    view = qc.layout.rows_first(vecs, n, rows)
    assert np.array_equal(view, expected)
    idx, back = qc.layout.row_gather(n, tuple(rows))
    assert np.array_equal(vecs.take(idx, axis=1), expected.reshape(2, -1))
    assert np.array_equal(expected.reshape(2, -1).take(back, axis=1), vecs)
    # the cache is keyed by value: reusing and mutating the list passed in
    # leaves the cached permutation of the original rows intact
    rows.reverse()
    assert np.array_equal(qc.layout.rows_first(vecs, n, rows),
                          rows_first_reference(vecs, n, rows))
    assert np.array_equal(qc.layout.rows_first(vecs, n, tuple(perm[:k])), expected)
    assert np.array_equal(vecs.take(qc.layout.row_gather(n, tuple(perm[:k]))[0], axis=1),
                          expected.reshape(2, -1))


def rows_back_reference(mats, n, rows):
    """Inverse of ``rows_first`` by an axis transpose, independent of the
    gather index: ``(b, 2^k, 2^(n-k))`` matrices back to vectors."""
    cols = [q for q in range(n) if q not in rows]
    axes = (0,) + tuple(n - q for q in reversed(rows)) + tuple(n - q for q in cols)
    t = np.reshape(mats, (-1,) + (2,) * n).transpose(np.argsort(axes))
    return t.reshape(len(t), 1 << n)


def apply_reference(vec, n, mat, qubits):
    """An apply by transpose, ``matmul`` and transpose back: the reference the
    gather kernel must equal bit for bit."""
    out = rows_back_reference(mat @ qc.layout.rows_first(vec, n, qubits), n, qubits)
    return out[0] if np.ndim(vec) == 1 and np.ndim(mat) == 2 else out


def _qubit_orders(n, rng):
    """Qubit tuples of 1 to 3 qubits: random, sorted and low-block orders."""
    for k in range(1, min(n, 3) + 1):
        picked = [int(q) for q in rng.permutation(n)[:k]]
        yield from (tuple(picked), tuple(sorted(picked)), tuple(range(k)))


@pytest.mark.parametrize("n", range(1, 10))
def test_gather_kernel_is_bit_equal_to_transpose_kernel(n):
    rng = np.random.default_rng(n)
    b = 3
    batch = _ginibre(rng, b, 1 << n)
    # a transposed, non-contiguous batch, as compose_on_qubits passes
    strided = _ginibre(rng, 1 << n, b).T
    cases = views = 0
    for qubits in _qubit_orders(n, rng):
        # where rows_first is a non-contiguous view, the old kernel's matmul
        # read strided rows; the gather kernel reads a copy
        view = qc.layout.rows_first(strided, n, qubits)
        views += np.shares_memory(view, strided) and not view.flags.c_contiguous
        d = 1 << len(qubits)
        one, stack = _ginibre(rng, d, d), _ginibre(rng, b, d, d)
        for vec, mat in [(batch[0], one), (batch[0], stack), (batch, one), (batch, stack),
                         (batch[:1], stack), (strided, one), (strided, stack)]:
            got = qc.apply_on_qubits(vec, n, [(mat, qubits)])
            want = apply_reference(vec, n, mat, qubits)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (qubits, np.shape(vec), np.shape(mat))
            cases += 1
    assert cases >= 21 and (views > 0 or n > 4)


@given(kernel_cases())
@settings(max_examples=40, deadline=None)
def test_apply_steps_equals_successive_single_applies(case):
    layout, regs, b, seed = case
    rng = qc.stream(seed, "steps")
    # the chosen registers, then their reverse, then the first alone, with
    # a shared matrix in the middle and per-vector stacks on either side
    orders = [regs, tuple(reversed(regs)), regs[:1]]
    steps = []
    for j, order in enumerate(orders):
        d = layout.subdim(*order)
        steps.append((_ginibre(rng, d, d) if j == 1 else _ginibre(rng, b, d, d), order))
    vecs = _ginibre(rng, b, layout.dim)
    want = vecs
    for mat, order in steps:
        want = qc.apply_vector_matrix(want, layout, mat, order)
    got = qc.apply_steps(vecs, layout, steps)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # a vector through 2-D matrices stays 1-D
    flat = [(mat[0] if mat.ndim == 3 else mat, order) for mat, order in steps]
    single = vecs[0]
    for mat, order in flat:
        single = qc.apply_vector_matrix(single, layout, mat, order)
    assert qc.apply_steps(vecs[0], layout, flat).tobytes() == single.tobytes()
    assert single.shape == (layout.dim,)
    # a vector through a matrix, then a stack, is a batch
    mixed = qc.apply_vector_matrix(qc.apply_vector_matrix(vecs[0], layout, *flat[0]),
                                   layout, *steps[2])
    got = qc.apply_steps(vecs[0], layout, [flat[0], steps[2]])
    assert got.shape == mixed.shape == (b, layout.dim) and got.tobytes() == mixed.tobytes()


# ---------------------------------------------------------------------------
# fidelity / purified distance
# ---------------------------------------------------------------------------

def test_fidelity_orthogonal_and_self():
    assert qc.fidelity(bb84(0), bb84(1)) == pytest.approx(0.0, abs=1e-15)
    rho = qc.random_density_matrix(2, qc.stream(31))
    assert qc.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_pure_vs_maximally_mixed():
    # closed form: tr sqrt(sqrt(s) r sqrt(s)) = sqrt(<0|I/2|0>) = 1/sqrt(2)
    rho = bb84(0)
    sigma = np.eye(2) / 2
    assert qc.fidelity(rho, sigma) == pytest.approx(SQ2, abs=1e-12)
    assert qc.fidelity(sigma, rho) == pytest.approx(SQ2, abs=1e-12)


def test_fidelity_symmetric_and_dimension_mismatch():
    a = qc.random_density_matrix(2, qc.stream(32))
    b = qc.random_density_matrix(2, qc.stream(33))
    assert qc.fidelity(a, b) == pytest.approx(qc.fidelity(b, a), abs=1e-10)
    with pytest.raises(ValueError):
        qc.fidelity(a, BELL)


def test_purified_distance_examples():
    z0, z1, plus = (qc.BB84_VECTORS[i] for i in (0, 1, 2))
    assert qc.purified_distance_pure(z0, z0) == pytest.approx(0.0, abs=1e-7)
    assert qc.purified_distance_pure(z0, z1) == pytest.approx(1.0, abs=1e-15)
    assert qc.purified_distance_pure(z0, plus) == pytest.approx(SQ2, abs=1e-12)
    # sqrt(1 - F^2) against the dense root fidelity
    f = qc.fidelity(bb84(0), bb84(2))
    assert qc.purified_distance_pure(z0, plus) == pytest.approx(math.sqrt(1 - f * f),
                                                                abs=1e-12)


def test_purified_distance_triangle_inequality():
    for t in range(1000):
        a, b, c = (qc.random_unit_vector(4, qc.stream(40, t, s)) for s in "abc")
        ab = qc.purified_distance_pure(a, b)
        bc = qc.purified_distance_pure(b, c)
        ac = qc.purified_distance_pure(a, c)
        assert ac <= ab + bc + 1e-9


def test_purified_distance_euclidean_bound():
    for t in range(1000):
        a, b = (qc.random_unit_vector(4, qc.stream(41, t, s)) for s in "ab")
        p = qc.purified_distance_pure(a, b)
        assert p <= np.linalg.norm(a - b) + 1e-12


def test_purified_distance_unitary_invariance():
    for t in range(50):
        a, b = (qc.random_unit_vector(4, qc.stream(42, t, s)) for s in "ab")
        u = qc.haar_random_unitary(4, qc.stream(42, t, "u"))
        assert qc.purified_distance_pure(u @ a, u @ b) == pytest.approx(
            qc.purified_distance_pure(a, b), abs=1e-10)


def test_fidelity_data_processing_under_partial_trace():
    lay = qc.RegisterLayout([("P", 1), ("Q", 1)])
    for t in range(1000):
        a, b = (qc.random_unit_vector(lay.dim, qc.stream(43, t, s)) for s in "ab")
        # the root fidelity of two pure states is |<a|b>|
        f_full = abs(np.vdot(a, b))
        f_red = qc.fidelity(qc.partial_trace(density(a), lay, "P"),
                            qc.partial_trace(density(b), lay, "P"))
        assert f_red >= f_full - 1e-9


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------

def test_conditional_entropy_bell():
    assert qc.conditional_entropy(BELL, BELL_LAYOUT, "R", "A") == pytest.approx(-1.0, abs=1e-12)


def test_conditional_entropy_product_maximally_mixed():
    lay = qc.RegisterLayout([("R", 1), ("S", 1)])
    sigma = qc.random_density_matrix(2, qc.stream(50))
    rho = np.kron(sigma, np.eye(2) / 2)  # little-endian: R low bits
    assert qc.conditional_entropy(rho, lay, "R", "S") == pytest.approx(1.0, abs=1e-12)


def test_conditional_entropy_classically_correlated():
    lay = qc.RegisterLayout([("R", 1), ("S", 1)])
    rho = np.diag([0.5, 0, 0, 0.5]).astype(complex)
    assert qc.conditional_entropy(rho, lay, "R", "S") == pytest.approx(0.0, abs=1e-12)


def test_conditional_entropy_rejects_overlap():
    with pytest.raises(ValueError):
        qc.conditional_entropy(BELL, BELL_LAYOUT, "R", "R")


@st.composite
def entropy_cases(draw):
    """R (1 qubit) in the target, up to six more qubits split at random
    between target, side and the traced rest, in a random layout order."""
    widths = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)
                  .filter(lambda ws: sum(ws) <= 6))
    registers = [(f"E{i}", w) for i, w in enumerate(widths)]
    registers.insert(draw(st.integers(0, len(registers))), ("R", 1))
    roles = {name: draw(st.sampled_from(("target", "side", "rest")))
             for name, _ in registers if name != "R"}
    target = ("R",) + tuple(n for n, r in roles.items() if r == "target")
    side = tuple(n for n, r in roles.items() if r == "side")
    basis = draw(st.sampled_from((None, 0, 1)))
    return (qc.RegisterLayout(registers), target, side, basis,
            draw(st.integers(1, 3)), draw(st.integers(0, 2 ** 16)))


@given(entropy_cases())
@settings(max_examples=60, deadline=None)
def test_conditional_entropy_pure_matches_dense_reference(case):
    layout, target, side, basis, k, seed = case
    vecs = np.stack([qc.random_unit_vector(layout.dim, qc.stream(seed, i))
                     for i in range(k)])
    dephase = None if basis is None else ("R", basis)
    batched = qc.conditional_entropy_pure(vecs, layout, target, side, dephase)
    assert batched.shape == (k,)
    for vec, value in zip(vecs, batched):
        rho = density(vec)
        if basis is not None:
            rho = qc.dephase_register(rho, layout, "R", basis)
        assert value == pytest.approx(qc.conditional_entropy(rho, layout, target, side),
                                      abs=1e-12)
        single = qc.conditional_entropy_pure(vec[None], layout, target, side, dephase)
        assert single.shape == (1,) and single[0] == value


def test_conditional_entropy_pure_rejects_bad_arguments():
    vec = qc.BELL_VECTOR[None]
    with pytest.raises(ValueError):
        qc.conditional_entropy_pure(vec, BELL_LAYOUT, "R", "R")
    wide = qc.RegisterLayout([("R", 2)])
    with pytest.raises(ValueError):
        qc.conditional_entropy_pure(np.eye(4)[:1], wide, "R", (), ("R", 0))


def test_binary_entropy_values():
    assert qc.binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert qc.binary_entropy(0.0) == 0.0
    assert qc.binary_entropy(1.0) == 0.0
    expect = 2 - 0.75 * math.log2(3)
    assert qc.binary_entropy(0.25) == pytest.approx(expect, abs=1e-12)
    assert expect == pytest.approx(0.811278, abs=1e-6)
    with pytest.raises(ValueError):
        qc.binary_entropy(1.2)


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_binary_entropy_symmetric_and_bounded(p):
    h = qc.binary_entropy(p)
    assert 0.0 <= h <= 1.0 + 1e-12
    assert h == pytest.approx(qc.binary_entropy(1.0 - p), abs=1e-12)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_streams_deterministic_and_split():
    u1 = qc.haar_random_unitary(4, qc.stream(99, "u"))
    u2 = qc.haar_random_unitary(4, qc.stream(99, "u"))
    u3 = qc.haar_random_unitary(4, qc.stream(99, "v"))
    np.testing.assert_array_equal(u1, u2)
    assert not np.allclose(u1, u3)


# first raw Philox words of fixed (seed, path) streams: the derivation must
# not change between environments, and a numpy integer is its int value
GOLDEN_STREAMS = [
    ((0, "restart", 0), [4907641496119300102, 14870054840795272057, 5567771988758281236]),
    ((7, "inputs", 3), [15940111220183160965, 17784360322358281544, 17368275152755113120]),
    ((1, "cit", np.int64(2)), [10909625517196771105, 11599779300888053544,
                               15639294231308083897]),
    ((1, "cit", 2), [10909625517196771105, 11599779300888053544, 15639294231308083897]),
]


@pytest.mark.parametrize("address, words", GOLDEN_STREAMS)
def test_stream_golden_words(address, words):
    assert qc.stream(*address).bit_generator.random_raw(3).tolist() == words


@pytest.mark.parametrize("part", [True, 2.0, None, b"x", np.array([1, 2])])
def test_stream_rejects_non_integer_parts(part):
    with pytest.raises(TypeError, match="ints, strs or tuples"):
        qc.stream(0, part)


def test_haar_unitary_columns_normalized():
    u = qc.haar_random_unitary(8, qc.stream(100))
    np.testing.assert_allclose(np.linalg.norm(u, axis=0), np.ones(8), atol=1e-10)
    with pytest.raises(ValueError):
        qc.haar_random_unitary(3, qc.stream(101))


@pytest.mark.parametrize("dim", [2, 4, 8, 16])
def test_haar_finish_on_a_stack_equals_single_draws(dim):
    """The stacked finish (one QR call over 100 drawn matrices) and a drawn
    stack give, bit for bit, what 100 single haar_random_unitary calls give."""
    singles = np.stack([qc.haar_random_unitary(dim, qc.stream(5, "haar", t))
                        for t in range(100)])
    drawn = np.stack([qc.ginibre(dim, qc.stream(5, "haar", t)) for t in range(100)])
    assert np.array_equal(qc.haar_finish(drawn), singles)
    rng = qc.stream(6, "haar")
    row = [qc.haar_random_unitary(dim, rng) for _ in range(100)]
    assert np.array_equal(qc.haar_random_unitary(dim, qc.stream(6, "haar"), 100),
                          np.stack(row))


@pytest.mark.parametrize("dim", [1, 2, 8, 32, 128])
def test_sampling_equals_the_two_call_formulas(dim):
    """One draw per vector or matrix reads the stream as the former two calls
    (real parts, then imaginary parts) did, and gives the same bits."""
    def unit_reference(g):
        v = g.standard_normal(dim) + 1j * g.standard_normal(dim)
        return v / np.linalg.norm(v)

    def haar_reference(g):
        z = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        return q * (d / np.abs(d))

    for seed in range(5):
        got, want = qc.stream(seed, "unit", dim), qc.stream(seed, "unit", dim)
        for _ in range(3):   # and leave the stream where the reference does
            assert np.array_equal(qc.random_unit_vector(dim, got), unit_reference(want))
        if dim <= 16:
            got, want = qc.stream(seed, "haar", dim), qc.stream(seed, "haar", dim)
            for _ in range(3):
                assert np.array_equal(qc.haar_random_unitary(dim, got), haar_reference(want))


def test_vector_norm_equals_numpy_norm():
    g = qc.stream(7, "norm")
    for dim in (0, 1, 3, 64, 1000):
        v = g.standard_normal(dim) + 1j * g.standard_normal(dim)
        assert qc.vector_norm(v) == np.linalg.norm(v)
        real = np.ascontiguousarray(v.real)
        assert qc.vector_norm(real) == np.linalg.norm(real)


@pytest.mark.parametrize("dim", [1, 3, 64, 1000])
def test_vector_norm_of_a_batch_equals_numpy_norm_per_row(dim):
    """Every row of a batch, bit for bit, whatever the batch's shape or
    strides: a 2-D and a 3-D batch, an all-zero row, rows of large and small
    scale, and the strided ``.real`` view of a complex batch."""
    g = qc.stream(8, "norm-rows", dim)
    batch = g.standard_normal((2, 3, dim)) + 1j * g.standard_normal((2, 3, dim))
    batch[0, 1] = 0
    batch[1, 0] *= 1e150
    batch[1, 2] *= 1e-150
    for v in (batch, batch.reshape(6, dim), batch.real):
        rows = v.reshape(-1, dim)
        want = np.array([np.linalg.norm(row) for row in rows])
        got = qc.vector_norm(v)
        assert got.shape == v.shape[:-1] + (1,)
        assert np.array_equal(got.reshape(-1), want)
    assert qc.vector_norm(batch)[0, 1, 0] == 0.0


def test_stacked_expectation_equals_vdot_per_matrix():
    """<v|rho|v> of each 4 x 4 matrix of a stack is np.vdot's, bit for bit,
    and one matrix still gives a float."""
    g = qc.stream(9, "expectation")
    for _ in range(500):
        rho = g.standard_normal((6, 4, 4)) + 1j * g.standard_normal((6, 4, 4))
        vec = g.standard_normal(4) + 1j * g.standard_normal(4)
        want = np.array([np.vdot(vec, r @ vec).real for r in rho])
        assert np.array_equal(qc.expectation(vec, rho), want)
        single = qc.expectation(vec, rho[0])
        assert type(single) is float and single == want[0]


def test_haar_first_moment():
    g = qc.stream(102)
    vals = [abs(qc.random_unit_vector(2, g)[0]) ** 2 for _ in range(10_000)]
    assert np.mean(vals) == pytest.approx(0.5, abs=0.02)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def test_measure_bell_same_basis_agreement():
    for basis in (0, 1):
        p0, p1 = qc.basis_projectors(basis)
        agree = qc.kron_le(p0, p0) + qc.kron_le(p1, p1)
        prob = qc.expectation(qc.BELL_VECTOR, agree)
        assert prob == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# assemble / relabel helpers
# ---------------------------------------------------------------------------

def test_assemble_interleaved_groups():
    lay = qc.RegisterLayout([("R", 1), ("A", 1), ("B", 1)])
    vec = qc.assemble_raw(lay, [(("R", "B"), qc.BELL_VECTOR), ("A", np.array([0, 1]))])
    # amplitude of |r=0 a=1 b=0> and |r=1 a=1 b=1> should be 1/sqrt(2)
    assert vec[0b010] == pytest.approx(SQ2)
    assert vec[0b111] == pytest.approx(SQ2)
    assert abs(vec).sum() == pytest.approx(2 * SQ2)


def test_assemble_raw_batch_matches_single_assembles():
    lay = qc.RegisterLayout([("A", 1), ("R", 1), ("B", 2)])
    rng = qc.stream(7, "assemble")
    phis = np.stack([qc.random_unit_vector(4, rng) for _ in range(5)])
    batch = qc.assemble_raw(lay, [(("R", "A"), qc.BELL_VECTOR), ("B", phis)])
    assert batch.shape == (5, 16)
    for row, phi in zip(batch, phis):
        single = qc.assemble_raw(lay, [(("R", "A"), qc.BELL_VECTOR), ("B", phi)])
        assert single.shape == (16,)
        np.testing.assert_array_equal(row, single)


def test_state_validation():
    qc.check_state(qc.BB84_VECTORS[2], 2)
    for data, message in [
        (np.ones(4) / 2, "vector of length 2"),                  # wrong shape
        (np.eye(4)[:2] / 2, "vector of length 2"),               # wrong shape
        (np.eye(2) / 2, "vector of length 2, not shape"),        # a density matrix
        (np.array([1.0, 1.0]), "norm"),                          # norm sqrt(2)
    ]:
        with pytest.raises(ValueError, match=message):
            qc.check_state(data, 2, "psi")
