"""A slow, plainly correct reference for the two-phase attack executor.

Each step of the attack is built as a full dim x dim operator: the local
unitaries kron'd in layout order, the Ac <-> Bc exchange as the register
relabelling that ALICE_FINAL and BOB_FINAL encode, and the Bell projector or
the effects P_z x Pi_z x Sigma_z.  Success is then <psi|O|psi>.
Nothing here goes through the qcore apply or trace kernels.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qpv import analysis as an
from qpv import attacks as at
from qpv import qcore as qc
from qpv.attacks.strategy import bell_core, rest_registers, returned_register

BELL = np.outer(qc.BELL_VECTOR, qc.BELL_VECTOR.conj())
BASES = {0: [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
         1: [np.full((2, 2), 0.5), np.array([[0.5, -0.5], [-0.5, 0.5]])]}


def relabel(n, order):
    """Permutation matrix moving qubit order[k] to qubit k (little-endian)."""
    dim = 1 << n
    perm = np.zeros((dim, dim))
    for i in range(dim):
        j = sum(((i >> q) & 1) << k for k, q in enumerate(order))
        perm[j, i] = 1.0
    return perm


def embed(mat, layout, regs):
    """``mat`` on the named registers (little-endian in the given order) as a
    full operator: relabel those qubits to the bottom, kron, relabel back."""
    n = layout.total_qubits
    qubits = layout.positions(*regs)
    rest = [q for q in range(n) if q not in qubits]
    perm = relabel(n, qubits + rest)
    return perm.T @ np.kron(np.eye(1 << len(rest)), mat) @ perm


def reference_success(strategy, f, x, y):
    layout = strategy.layout
    # layout order R, (A At Ac), (B Bt Bc): R on the lowest bit
    local = np.kron(strategy.matrix("bob", y), np.kron(strategy.matrix("alice", x), np.eye(2)))
    value = f.value(x, y)
    if strategy.kind == "route":
        ret = returned_register(value)
        if not strategy.holds_qubit(x, y, ret):
            return 0.0
        finale = (embed(strategy.matrix("l_final", (x, y)), layout, at.BOB_FINAL)
                  @ embed(strategy.matrix("k_final", (x, y)), layout, at.ALICE_FINAL))
        step = finale @ local
        obs = step.conj().T @ embed(BELL, layout, ("R", ret)) @ step
    else:
        pi, sigma = (strategy.matrix(name, (x, y)) for name in ("pi_effect", "sigma_effect"))
        eye_a, eye_b = np.eye(len(pi)), np.eye(len(sigma))
        test = sum(embed(BASES[value][z], layout, ("R",))
                   @ embed(ea, layout, at.ALICE_FINAL) @ embed(eb, layout, at.BOB_FINAL)
                   for z, ea, eb in ((0, pi, sigma), (1, eye_a - pi, eye_b - sigma)))
        obs = local.conj().T @ test @ local
    return float(np.vdot(strategy.psi, obs @ strategy.psi).real)


def random_effect(dim, rng):
    u = qc.haar_random_unitary(dim, rng)
    return (u * rng.random(dim)) @ u.conj().T


@st.composite
def strategies(draw):
    kind = draw(st.sampled_from(["route", "meas"]))
    n = draw(st.integers(1, 2))
    at_, ac = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(
        lambda t: sum(t) <= 2))
    symmetric = draw(st.booleans())
    bt = at_ if symmetric else draw(st.integers(0, at_ + ac))
    layout = qc.RegisterLayout(list(zip(at.REGISTER_ORDER, (1, 1, at_, ac, 1, bt, at_ + ac - bt))))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = qc.stream(seed, "reference")
    # the attack starts from |Omega>_RA x phi, phi on the other registers
    phi = qc.random_unit_vector(layout.subdim(*rest_registers(layout, "R", "A")), rng)
    psi = bell_core(layout, "A", phi)
    side = 1 << n
    pairs = [(x, y) for x in range(side) for y in range(side)]
    # missing local or recovery unitaries default to the identity
    alice = {x: qc.haar_random_unitary(layout.subdim(*at.ALICE_LOCAL), rng)
             for x in range(side) if rng.random() < 0.8}
    bob = {y: qc.haar_random_unitary(layout.subdim(*at.BOB_LOCAL), rng)
           for y in range(side) if rng.random() < 0.8}
    da, db = layout.subdim(*at.ALICE_FINAL), layout.subdim(*at.BOB_FINAL)
    if kind == "route":
        finale = dict(k_final={p: qc.haar_random_unitary(da, rng) for p in pairs
                               if rng.random() < 0.8},
                      l_final={p: qc.haar_random_unitary(db, rng) for p in pairs
                               if rng.random() < 0.8},
                      qubit_site=(None if draw(st.booleans()) else
                                  {p: "AB"[int(rng.integers(2))] for p in pairs}))
    else:
        finale = dict(pi_effect={p: random_effect(da, rng) for p in pairs},
                      sigma_effect={p: random_effect(db, rng) for p in pairs})
    strategy = at.AttackStrategy(kind=kind, n=n, layout=layout, psi=psi,
                                 alice=alice, bob=bob, **finale)
    return strategy, an.random_function(n, rng)


def assert_matches_reference(strategy, f):
    report = at.epsilon_l_report(strategy, f)
    for x, y in f.pairs():
        ref = reference_success(strategy, f, x, y)
        execute = at.execute_route if strategy.kind == "route" else at.execute_meas
        assert abs(execute(strategy, f, x, y) - ref) <= 1e-12
        assert abs(report.per_pair[(x, y)] - ref) <= 1e-12


@given(strategies())
@settings(max_examples=40, deadline=None)
def test_executor_matches_dense_reference(case):
    assert_matches_reference(*case)


def test_compiled_gardenhose_matches_dense_reference():
    # one pipe, Alice's x = 0 sends the water over: Ac has 2 qubits, Bc none
    gh = at.GardenHoseProtocol(pipes=1, alice={0: (("S", 1),)}, bob={})
    strategy = at.compile_gardenhose(gh, 1)
    assert strategy.layout.width("Ac") != strategy.layout.width("Bc")
    exits = an.BooleanFunction(1, [at.gardenhose_exit(gh, x, y)
                                   for x in (0, 1) for y in (0, 1)])
    for f in (exits, an.xor_function(1)):
        assert_matches_reference(strategy, f)
    assert abs(at.epsilon_l_report(strategy, exits).average - 1.0) <= 1e-12
