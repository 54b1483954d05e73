import math

import numpy as np
import pytest

from qpv import analysis as an
from qpv import attacks as at
from qpv import protocol as pr
from qpv import qcore as qc
from qpv.attacks.execute import (
    after_locals,
    bell_effect,
    bell_overlap,
    meas_branches,
    pair_success,
    returned_register,
    route_finale,
)

XOR = an.xor_function(1)
AND = an.ip_function(1)


def identity_route_strategy(f, **layout_kw):
    layout = at.attack_layout(**layout_kw)
    rest = [n for n in layout.names if n not in ("R", "A") and layout.width(n)]
    factors = [(("R", "A"), qc.BELL_VECTOR)]
    for name in rest:
        e0 = np.zeros(layout.subdim(name), dtype=complex)
        e0[0] = 1.0
        factors.append(((name,), e0))
    psi = qc.assemble_raw(layout, factors)
    return at.AttackStrategy(kind="route", n=f.n, layout=layout, psi=psi)


# ---------------------------------------------------------------------------
# execute_route
# ---------------------------------------------------------------------------

def test_execute_route_keep_strategy_on_constant_zero():
    f0 = an.constant_function(1, 0)
    strat = identity_route_strategy(f0)
    rep = at.epsilon_l_report(strat, f0)
    assert all(s == pytest.approx(1.0, abs=1e-12) for s in rep.per_pair.values())


def test_execute_route_swap_chain_for_constant_one():
    f1 = an.constant_function(1, 1)
    strat = at.swap_in_attack(f1)
    rep = at.epsilon_l_report(strat, f1)
    assert all(s == pytest.approx(1.0, abs=1e-12) for s in rep.per_pair.values())


def test_keep_q_attack_on_xor():
    keep = at.keep_q_attack(XOR)
    rep = at.epsilon_l_report(keep, XOR)
    expected = {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 1.0}
    for pair, val in expected.items():
        assert rep.per_pair[pair] == pytest.approx(val, abs=1e-12)
    assert rep.average == pytest.approx(0.5, abs=1e-12)
    assert rep.epsilon_l(0.1) == 2


def test_epsilon_l_report_perfect_and_budget():
    f0 = an.constant_function(1, 0)
    rep = at.epsilon_l_report(identity_route_strategy(f0), f0)
    assert rep.epsilon_l(0.0) == 4
    assert rep.epsilon_l(1.0) == 4
    big = an.constant_function(5, 0)
    with pytest.raises(ValueError):
        at.epsilon_l_report(identity_route_strategy(big), big)


def test_execute_kind_and_input_validation():
    keep = at.keep_q_attack(XOR)
    with pytest.raises(ValueError):
        at.execute_meas(keep, XOR, 0, 0)
    with pytest.raises(ValueError):
        at.execute_route(keep, XOR, 2, 0)
    f2 = an.xor_function(2)
    with pytest.raises(ValueError):
        at.execute_route(keep, f2, 0, 0)


# ---------------------------------------------------------------------------
# execute_meas
# ---------------------------------------------------------------------------

def readable_bit_strategy(f, rotate_by_x=False):
    """Alice measures the stored qubit coherently (CNOT copies into her local
    register and the message register); both sides answer the copied bit."""
    layout = at.attack_layout(a=1, at=1, ac=1)
    rest = [n for n in layout.names if n not in ("R", "A") and layout.width(n)]
    factors = [(("R", "A"), qc.BELL_VECTOR)]
    for name in rest:
        e0 = np.zeros(layout.subdim(name), dtype=complex)
        e0[0] = 1.0
        factors.append(((name,), e0))
    psi = qc.assemble_raw(layout, factors)
    p0 = qc.basis_projectors(0)[0]
    # effects answering the readable bit: Alice reads A, Bob reads the copy in Ac
    pi = qc.kron_le(p0, np.eye(2), np.eye(2))       # on (A, At, Bc)
    sigma = qc.kron_le(np.eye(2), np.eye(2), p0)    # on (B, Bt, Ac)
    alice = {}
    for x in range(1 << f.n):
        gates = []
        if rotate_by_x and all(f.value(x, y) == 1 for y in range(1 << f.n)):
            gates.append((qc.H, [0]))
        gates.append((qc.CNOT, [0, 1]))   # copy into At
        gates.append((qc.CNOT, [0, 2]))   # copy into Ac
        alice[x] = qc.compose_on_qubits(3, gates)
    pairs = [(x, y) for x in range(1 << f.n) for y in range(1 << f.n)]
    return at.AttackStrategy(kind="meas", n=f.n, layout=layout, psi=psi,
                             alice=alice,
                             pi_effect={p: pi for p in pairs},
                             sigma_effect={p: sigma for p in pairs})


def test_execute_meas_copied_bit_wins_constant_zero():
    f0 = an.constant_function(1, 0)
    strat = readable_bit_strategy(f0)
    rep = at.epsilon_l_report(strat, f0)
    assert all(s == pytest.approx(1.0, abs=1e-12) for s in rep.per_pair.values())


def test_execute_meas_x_dependent_basis():
    fx = an.projection_function(1, 0, "x")
    strat = readable_bit_strategy(fx, rotate_by_x=True)
    rep = at.epsilon_l_report(strat, fx)
    assert all(s == pytest.approx(1.0, abs=1e-12) for s in rep.per_pair.values())


def test_execute_meas_oblivious_bob_baseline():
    # Alice forwards the qubit; Bob measures it exactly, Alice has nothing:
    # joint success 1/2 on every pair
    layout = at.attack_layout(a=1, ac=1)
    rest = [n for n in layout.names if n not in ("R", "A") and layout.width(n)]
    factors = [(("R", "A"), qc.BELL_VECTOR)]
    for name in rest:
        e0 = np.zeros(layout.subdim(name), dtype=complex)
        e0[0] = 1.0
        factors.append(((name,), e0))
    psi = qc.assemble_raw(layout, factors)
    swap = qc.compose_on_qubits(2, [(qc.SWAP2, [0, 1])])
    pairs = list(XOR.pairs())
    pi = {}
    sigma = {}
    for (x, y) in pairs:
        theta = XOR.value(x, y)
        p0 = qc.basis_projectors(theta)[0]
        pi[(x, y)] = qc.kron_le(np.eye(2), np.eye(2)) / 2          # coin flip
        sigma[(x, y)] = qc.kron_le(np.eye(2), p0)                  # read Ac in basis
    strat = at.AttackStrategy(kind="meas", n=1, layout=layout, psi=psi,
                              alice={x: swap for x in (0, 1)},
                              pi_effect=pi, sigma_effect=sigma)
    rep = at.epsilon_l_report(strat, XOR)
    assert all(s == pytest.approx(0.5, abs=1e-12) for s in rep.per_pair.values())


# ---------------------------------------------------------------------------
# linearity / mixing
# ---------------------------------------------------------------------------

def test_mixture_success_is_linear():
    layout = at.attack_layout(a=1, at=1)
    rng = qc.stream(77)
    psis = [qc.random_unit_vector(layout.dim, qc.stream(77, i)) for i in range(2)]
    alice = {x: qc.haar_random_unitary(4, qc.stream(78, x)) for x in (0, 1)}
    bob = {y: qc.haar_random_unitary(4, qc.stream(79, y)) for y in (0, 1)}
    k = {p: qc.haar_random_unitary(4, qc.stream(80, p)) for p in XOR.pairs()}
    lu = {p: qc.haar_random_unitary(4, qc.stream(81, p)) for p in XOR.pairs()}
    lam = 0.37
    mix = lam * np.outer(psis[0], psis[0].conj()) + (1 - lam) * np.outer(psis[1], psis[1].conj())
    args = dict(kind="route", n=1, layout=layout, alice=alice, bob=bob,
                k_final=k, l_final=lu)
    strat_mix = at.AttackStrategy(psi=mix, **args)
    strat0 = at.AttackStrategy(psi=psis[0], **args)
    strat1 = at.AttackStrategy(psi=psis[1], **args)
    for x, y in XOR.pairs():
        s_mix = at.execute_route(strat_mix, XOR, x, y)
        s0 = at.execute_route(strat0, XOR, x, y)
        s1 = at.execute_route(strat1, XOR, x, y)
        assert s_mix == pytest.approx(lam * s0 + (1 - lam) * s1, abs=1e-12)
        rho_mix, rho0, rho1 = (at.execute_route_reduced(s, XOR, x, y)
                               for s in (strat_mix, strat0, strat1))
        np.testing.assert_allclose(rho_mix, lam * rho0 + (1 - lam) * rho1, atol=1e-12)


def test_mixture_success_is_linear_meas():
    layout = at.attack_layout(a=1, ac=1)
    psis = [qc.random_unit_vector(layout.dim, qc.stream(90, i)) for i in range(2)]
    pairs = list(XOR.pairs())
    pi = {p: at.seesaw.random_effect(4, qc.stream(91, p)) for p in pairs}
    sg = {p: at.seesaw.random_effect(4, qc.stream(92, p)) for p in pairs}
    lam = 0.61
    args = dict(kind="meas", n=1, layout=layout, pi_effect=pi, sigma_effect=sg)
    mix = lam * np.outer(psis[0], psis[0].conj()) + (1 - lam) * np.outer(psis[1], psis[1].conj())
    vals = []
    for psi in (psis[0], psis[1], mix):
        strat = at.AttackStrategy(psi=psi, **args)
        vals.append(at.epsilon_l_report(strat, XOR).average)
    assert vals[2] == pytest.approx(lam * vals[0] + (1 - lam) * vals[1], abs=1e-12)


# ---------------------------------------------------------------------------
# classical copy attack
# ---------------------------------------------------------------------------

def test_classical_copy_attack():
    for f in (an.ip_function(3), an.random_function(2, 5)):
        rep, events = at.classical_copy_attack(f)
        assert rep.average == 1.0
        assert len(rep.per_pair) == 1 << (2 * f.n)
        assert pr.timing_check(events)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_strategy_serialization_lossless():
    outcome = at.seesaw_optimize(XOR, q=1, kind="route", restarts=1, iters=5, seed=3)
    strat = outcome.strategy
    text = at.strategy_to_json(strat)
    back = at.strategy_from_json(text)
    assert at.strategy_to_json(back) == text
    for x, y in XOR.pairs():
        assert at.execute_route(back, XOR, x, y) == at.execute_route(strat, XOR, x, y)


def test_meas_strategy_serialization():
    layout = at.attack_layout(a=1, ac=1)
    psi0 = at.unentangled_product_state(layout)
    outcome = at.seesaw_optimize(AND, kind="meas", restarts=1, iters=5, seed=4,
                                 split=(1, 0, 1), fix_psi=psi0)
    text = at.strategy_to_json(outcome.strategy)
    back = at.strategy_from_json(text)
    assert back.kind == "meas"
    rep_a = at.epsilon_l_report(outcome.strategy, AND)
    rep_b = at.epsilon_l_report(back, AND)
    assert rep_a.per_pair == rep_b.per_pair


def test_strategy_validation():
    layout = at.attack_layout(a=1)
    psi = identity_route_strategy(an.constant_function(1, 0)).psi
    with pytest.raises(ValueError):
        at.AttackStrategy(kind="bogus", n=1, layout=layout, psi=psi)
    with pytest.raises(ValueError):
        at.AttackStrategy(kind="route", n=1, layout=layout, psi=psi,
                          alice={0: np.eye(2) * 2})
    with pytest.raises(ValueError):
        at.AttackStrategy(kind="meas", n=1, layout=layout, psi=psi)
    with pytest.raises(ValueError, match="not an effect"):
        at.AttackStrategy(kind="meas", n=1, layout=layout, psi=psi,
                          pi_effect={(0, 0): np.diag([2.0, -1.0])}, sigma_effect={})
    with pytest.raises(ValueError):
        bad = qc.RegisterLayout([("R", 1), ("A", 1), ("At", 1), ("Ac", 0),
                                 ("B", 1), ("Bt", 0), ("Bc", 0)])
        at.AttackStrategy(kind="route", n=1, layout=bad,
                          psi=qc.random_unit_vector(bad.dim, qc.stream(1)))
    with pytest.raises(ValueError, match="norm"):
        at.AttackStrategy(kind="route", n=1, layout=layout, psi=2 * psi)
    with pytest.raises(ValueError, match="vector of length 8"):
        at.AttackStrategy(kind="route", n=1, layout=layout, psi=psi[:4])


def test_strategy_psi_is_a_read_only_copy():
    psi = identity_route_strategy(an.constant_function(1, 0)).psi
    given = np.array(psi)
    strat = at.AttackStrategy(kind="route", n=1, layout=at.attack_layout(a=1), psi=given)
    assert not strat.psi.flags.writeable
    with pytest.raises(ValueError):
        strat.psi[0] = 0.0
    # the caller's array stays writable and is not the stored one
    assert given.flags.writeable and strat.psi is not given
    given[0] = 0.0
    np.testing.assert_array_equal(strat.psi, psi)


# ---------------------------------------------------------------------------
# S-set membership
# ---------------------------------------------------------------------------

def test_s_set_route_members():
    lay = at.small_attack_layout()
    rest0 = [n for n in lay.names if n not in ("R", "A") and lay.width(n)]
    phi = np.zeros(1 << sum(lay.width(r) for r in rest0), dtype=complex)
    phi[0] = 1.0
    omega_ra = qc.assemble_raw(lay, [(("R", "A"), qc.BELL_VECTOR), (tuple(rest0), phi)])
    dist, member = at.s_set_distance(omega_ra, lay, "S0", "route", 0.0)
    assert member and dist <= 5e-8

    rest1 = [n for n in lay.names if n not in ("R", "B") and lay.width(n)]
    phi1 = np.zeros(1 << sum(lay.width(r) for r in rest1), dtype=complex)
    phi1[0] = 1.0
    omega_rb = qc.assemble_raw(lay, [(("R", "B"), qc.BELL_VECTOR), (tuple(rest1), phi1)])
    dist1, member1 = at.s_set_distance(omega_rb, lay, "S1", "route", 0.0)
    assert member1
    # the opposite set keeps its distance at sqrt(3)/2 for every recovery
    fig, _ = at.s_set_distance(omega_rb, lay, "S0", "route", 0.0)
    assert fig == pytest.approx(math.sqrt(3) / 2, abs=1e-9)


def test_s_set_meas_uncorrelated():
    lay = at.small_attack_layout()
    vec = np.zeros(lay.dim, dtype=complex)
    vec[0] = 1.0
    vec = qc.apply_on_qubits(vec, lay.total_qubits, qc.H, [lay.positions("R")[0]])
    fig, member = at.s_set_distance(vec, lay, "S0", "meas", 0.3)
    assert fig == pytest.approx(0.5, abs=1e-12)
    assert not member
    # eps > sqrt(1/2) makes the 1-eps^2 threshold reachable by guessing
    _, member_loose = at.s_set_distance(vec, lay, "S0", "meas", 0.75)
    assert member_loose


def test_s_set_distance_rejects_a_density_matrix():
    # the rows of a density matrix are not state vectors: a perfect S0 member
    # must not be scored through them
    lay = at.small_attack_layout()
    vec = at.strategy.bell_core(lay, "A")
    assert at.s_set_distance(vec, lay, "S0", "route", 0.0)[1]
    for kind in ("route", "meas"):
        with pytest.raises(ValueError, match="pure-state vector"):
            at.s_set_distance(np.outer(vec, vec.conj()), lay, "S0", kind, 0.0)
    with pytest.raises(ValueError, match="pure-state vector"):
        at.best_recovery_distance(np.stack([vec, vec]), lay, "S0")


def test_route_disjointness_sampled():
    lay = at.small_attack_layout()
    eps = 0.41
    bound = math.sqrt(3) / 2 - 2 * eps
    for t in range(100):
        rng = qc.stream(55, t)
        psi0 = at.route_member(lay, "S0", eps, rng)
        psi1 = at.route_member(lay, "S1", eps, rng)
        p = qc.purified_distance_pure(psi0, psi1)
        assert p > bound - 1e-9
        assert p > 0.046


def test_meas_disjointness_sampled():
    lay = at.small_attack_layout()
    for t in range(50):
        rng = qc.stream(56, t)
        phi0 = at.meas_member(lay, "S0", 0.3, rng)
        phi1 = at.meas_member(lay, "S1", 0.3, rng)
        p = qc.purified_distance_pure(phi0, phi1)
        assert p > 0.013


# ---------------------------------------------------------------------------
# the pair kernels: a batch of b pairs is b batches of one
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["route", "meas"])
@pytest.mark.parametrize("shared", [True, False])
def test_pair_batch_equals_batches_of_one(kind, shared):
    # bitwise: batching the pairs changes no pair's arithmetic
    rng = qc.stream(31, "batch", kind)
    layout = at.attack_layout(a=1, at=1, ac=1)
    b = 16
    vecs = np.stack([qc.random_unit_vector(layout.dim, rng) for _ in range(b)])
    values = rng.integers(0, 2, size=b)
    rets = [returned_register(v) for v in values]
    draw = qc.haar_random_unitary if kind == "route" else at.seesaw.random_effect

    def stack(regs, make=qc.haar_random_unitary):
        return np.stack([make(layout.subdim(*regs), rng) for _ in range(b)])

    alice, bob = stack(at.ALICE_LOCAL), stack(at.BOB_LOCAL)
    finale = (stack(at.ALICE_FINAL, draw), stack(at.BOB_FINAL, draw))

    def kernels(rows):
        psi = vecs[0] if shared else vecs[rows]
        after = after_locals(psi, layout, alice[rows], bob[rows])
        fin = tuple(m[rows] for m in finale)
        last = (route_finale(after, layout, *fin) if kind == "route"
                else meas_branches(after, layout, values[rows], *fin).swapaxes(0, 1))
        return (after, pair_success(after, layout, kind, values[rows], fin),
                bell_overlap(after, layout, rets[rows]),
                bell_effect(after, layout, rets[rows]), last)

    batched = kernels(slice(None))
    for i in range(b):
        for out, single in zip(batched, kernels(slice(i, i + 1))):
            assert np.array_equal(out[i:i + 1], single)
