import math

import numpy as np
import pytest

from qpv import analysis as an
from qpv import attacks as at
from qpv import qcore as qc
from qpv.attacks.strategy import bell_core, rest_registers, returned_register
from test_attack_reference import BASES, BELL, embed

COS2_PI8 = math.cos(math.pi / 8) ** 2


def test_route_constant_function_reaches_one():
    out = at.seesaw_optimize(an.constant_function(1, 0), (1, 0, 0), kind="route",
                             restarts=3, iters=40, seed=11)
    assert out.best_value >= 1 - 1e-6


def test_route_alice_local_function_reaches_one():
    fx = an.BooleanFunction(1, [0, 0, 1, 1])
    out = at.seesaw_optimize(fx, (1, 0, 1), kind="route", restarts=6, iters=60, seed=12)
    assert out.best_value >= 1 - 1e-6


@pytest.mark.parametrize("kind", ["route", "meas"])
def test_restart_values_never_exceed_best(kind):
    out = at.seesaw_optimize(an.xor_function(1), (1, 0, 0), kind=kind,
                             restarts=4, iters=25, seed=13)
    assert max(out.restart_values) == pytest.approx(out.best_value)
    # the executor re-scores the frozen strategy with the optimizer's kernels
    assert out.report.average == pytest.approx(out.best_value, abs=1e-12)


def test_meas_xor_unentangled_hits_breidbart_value():
    out = at.seesaw_optimize(an.xor_function(1), (1, 0, 1), kind="meas", restarts=8,
                             iters=60, seed=14, unentangled=True)
    assert out.best_value == pytest.approx(COS2_PI8, abs=5e-4)
    assert out.best_value <= 1 - 1e-9


def test_meas_and_unentangled_exceeds_breidbart_value():
    # the x=0 pairs fix the basis, so the optimum is (1 + cos^2(pi/8))/2
    out = at.seesaw_optimize(an.ip_function(1), (1, 0, 1), kind="meas", restarts=8,
                             iters=60, seed=15, unentangled=True)
    assert out.best_value == pytest.approx((1 + COS2_PI8) / 2, abs=5e-4)


def test_measure_broadcast_oracles():
    xor = an.xor_function(1)
    conj = an.ip_function(1)
    assert at.measure_broadcast_value(xor) == pytest.approx(COS2_PI8, abs=1e-12)
    assert at.measure_broadcast_value(conj) == pytest.approx((2 + math.sqrt(10) / 2) / 4,
                                                             abs=1e-12)
    assert at.measure_broadcast_value(conj, per_x=True) == pytest.approx(
        (1 + COS2_PI8) / 2, abs=1e-12)


@pytest.mark.parametrize("per_x", [False, True])
def test_measure_broadcast_value_tops_an_angle_grid(per_x):
    # cos^2(alpha - f pi/4) averaged over y, on a 20001-point grid of alpha:
    # the closed form is the supremum the grid approaches from below
    angles = np.linspace(0.0, math.pi / 2, 20001)
    for bits in range(16):
        f = an.BooleanFunction(1, [bits >> i & 1 for i in range(4)])
        by_x = np.mean(np.cos(angles - f.communication_matrix()[..., None] * math.pi / 4) ** 2,
                       axis=1)
        grid = np.mean(by_x.max(axis=1)) if per_x else by_x.mean(axis=0).max()
        value = at.measure_broadcast_value(f, per_x)
        assert grid <= value + 1e-15
        assert value - grid < 1e-9


@pytest.mark.parametrize("bits", range(16))
def test_unentangled_meas_seesaw_reaches_the_closed_form(bits):
    """On every n = 1 function the unentangled measuring see-saw reaches the
    per-x measure-and-broadcast value W(f) and never exceeds it; at f = xor
    W is the BB84 monogamy-game value cos^2(pi/8).  A value above W is a
    defect, not noise."""
    f = an.BooleanFunction(1, [bits >> i & 1 for i in range(4)])
    value = at.seesaw_optimize(f, (1, 0, 1), kind="meas", unentangled=True, restarts=2,
                               iters=60, seed=0).best_value
    closed = at.measure_broadcast_value(f, per_x=True)
    assert closed - 1e-6 <= value <= closed + 1e-9


@pytest.mark.parametrize("kind", ["route", "meas"])
@pytest.mark.parametrize("bits", range(16))
def test_no_exchange_values_are_the_anchors(kind, bits):
    """At split (1, 0, 0) each attacker holds one qubit and nothing is
    exchanged, so Bob's state is independent of R: rho_{R,B} = I/2 x sigma.
    Routing, a pair routed to Bob passes with <Omega|(I/2 x sigma)|Omega>
    = 1/4 and one routed to Alice with 1 (she keeps Q), so the value is
    1 - (3/4) Pr[f = 1].  Measuring, Bob's bit is independent of the
    verifier's uniform outcome, so a pair succeeds with at most 1/2, which
    answering 0 on both sides reaches: the value is 1/2.  A value above
    either is an attack that touches the verifier's qubit."""
    f = an.BooleanFunction(1, [bits >> i & 1 for i in range(4)])
    anchor = 1 - 0.75 * bin(bits).count("1") / 4 if kind == "route" else 0.5
    value = at.seesaw_optimize(f, (1, 0, 0), kind=kind, restarts=2, iters=60,
                               seed=0).best_value
    assert abs(value - anchor) <= 1e-9


def test_helstrom_effect_is_optimal():
    rng = qc.stream(21)
    for _ in range(20):
        d0 = qc.random_density_matrix(4, rng) * rng.random()
        d1 = qc.random_density_matrix(4, rng) * rng.random()
        best = at.helstrom_effect(d0, d1)
        val = np.trace(best @ d0).real + np.trace((np.eye(4) - best) @ d1).real
        for _ in range(20):
            e = at.seesaw.random_effect(4, rng)
            cand = np.trace(e @ d0).real + np.trace((np.eye(4) - e) @ d1).real
            assert cand <= val + 1e-9


@pytest.mark.parametrize("dim", [1, 2, 4, 8])
def test_random_effect_stack_equals_single_draws(dim):
    """A restart draws its effects as one stack; it holds, bit for bit, the
    effects of as many single draws from the same stream."""
    rng = qc.stream(23, dim)
    singles = np.stack([at.seesaw.random_effect(dim, rng) for _ in range(16)])
    assert np.array_equal(at.seesaw.random_effect(dim, qc.stream(23, dim), 16), singles)


def test_polar_unitary():
    rng = qc.stream(22)
    w = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u = at.polar_unitary(w)
    assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-10
    # the polar factor maximizes Re tr(U^dag W) over unitaries
    val = np.trace(u.conj().T @ w).real
    for _ in range(20):
        v = qc.haar_random_unitary(4, rng)
        assert np.trace(v.conj().T @ w).real <= val + 1e-9


def test_fixed_psi_stays_fixed():
    psi0 = bell_core(at.attack_layout(a=1, at=0, ac=1))
    out = at.seesaw_optimize(an.xor_function(1), (1, 0, 1), kind="meas", restarts=2,
                             iters=15, seed=16, unentangled=True)
    assert np.array_equal(out.strategy.psi, psi0)


def test_split_validation():
    with pytest.raises(ValueError):
        at.default_split(0)


def test_search_settings_rejected_before_the_first_restart():
    xor = an.xor_function(1)
    with pytest.raises(ValueError, match="'route' or 'meas'"):
        at.seesaw_optimize(xor, (1, 0, 1), kind="routing")
    with pytest.raises(ValueError, match="iters"):
        at.seesaw_optimize(xor, (1, 0, 1), iters=-3)
    for kind, split in (("route", (2, 0, 0)), ("meas", (0, 0, 0)), ("meas", (2, 0, 1))):
        with pytest.raises(ValueError, match="1-qubit A register"):
            at.seesaw_optimize(xor, split, kind=kind)


# seed-0 restart values of the benchmark's three see-saw configs (its q = 2
# and 3 are the splits (1, 0, 1) and (1, 0, 2)): the meas values recorded
# with the per-pair sweeps that the batched ones replaced, the route values
# with the Krylov step on phi, psi being |Omega>_RA x phi
PINNED_RESTARTS = {
    "seesaw_meas_and": (dict(f=an.ip_function(1), kind="meas", split=(1, 0, 1), restarts=8,
                             iters=8, unentangled=True),
                        [0.8749999715734185, 0.9267766952953653, 0.9267766952943856,
                         0.9267684860655999, 0.92677669526264, 0.9267766952951799,
                         0.8749993174380103, 0.9267451548003287]),
    "seesaw_route_q3": (dict(f=an.ip_function(1), kind="route", split=(1, 0, 2), restarts=3,
                             iters=4),
                        [0.9319041025728371, 0.91459186846203, 0.9438675941385202]),
    "seesaw_route_n2": (dict(f=an.ip_function(2), kind="route", split=(1, 0, 1), restarts=2,
                             iters=2),
                        [0.7933736075311012, 0.7987761385340646]),
}


@pytest.mark.parametrize("name", sorted(PINNED_RESTARTS))
def test_pinned_restart_values(name):
    cfg, expected = PINNED_RESTARTS[name]
    out = at.seesaw_optimize(seed=0, **cfg)
    np.testing.assert_allclose(out.restart_values, expected, rtol=0, atol=1e-12)
    # the strategy holds the psi its best value was scored on
    assert out.report.average == out.best_value


def test_restart_values_do_not_depend_on_chunking(monkeypatch):
    # two of these restarts stop a sweep before the other two, so the
    # one-chunk run drops restarts from a live batch
    cfg = dict(f=an.xor_function(1), split=(1, 0, 0), kind="route", restarts=4, iters=40,
               seed=0)
    batched = at.seesaw_optimize(**cfg)
    monkeypatch.setattr(at.seesaw, "CHUNK_CELLS", 1)
    single = at.seesaw_optimize(**cfg)
    assert batched.restart_values == single.restart_values
    assert at.strategy_to_json(batched.strategy) == at.strategy_to_json(single.strategy)


def dense_hamiltonian(strategy, f):
    """mean_p U_p^dag M_p U_p from full dim x dim operators, as the dense
    executor reference builds them: the objective is <psi|H|psi>."""
    layout = strategy.layout
    total = 0
    for x, y in f.pairs():
        value = f.value(x, y)
        step = (embed(strategy.matrix("bob", y), layout, at.BOB_LOCAL)
                @ embed(strategy.matrix("alice", x), layout, at.ALICE_LOCAL))
        if strategy.kind == "route":
            step = (embed(strategy.matrix("l_final", (x, y)), layout, at.BOB_FINAL)
                    @ embed(strategy.matrix("k_final", (x, y)), layout, at.ALICE_FINAL) @ step)
            test = embed(BELL, layout, ("R", returned_register(value)))
        else:
            pi, sigma = (strategy.matrix(name, (x, y)) for name in ("pi_effect", "sigma_effect"))
            test = sum(embed(BASES[value][z], layout, ("R",))
                       @ embed(ea, layout, at.ALICE_FINAL) @ embed(eb, layout, at.BOB_FINAL)
                       for z, ea, eb in ((0, pi, sigma),
                                         (1, np.eye(len(pi)) - pi, np.eye(len(sigma)) - sigma)))
        total = total + step.conj().T @ test @ step
    return total / (1 << 2 * f.n)


@pytest.mark.parametrize("kind", ["route", "meas"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_psi_step_reaches_top_eigenvalue(kind, seed):
    # n = 1, q = 2 (dim 32, phi of dim 8), entangled; one sweep in, phi is
    # warm, as in every sweep after the first.  The step's objective is H
    # compressed by |Omega>_RA x I, whose columns are bell_core of phi's basis
    f = an.ip_function(1)
    layout = at.attack_layout(a=1, ac=1)
    work = at.seesaw._Work(kind, f, layout, seed, [0])
    work.sweep()
    iso = bell_core(layout, "A", np.eye(layout.subdim(*rest_registers(layout, "R", "A")))).T
    h = iso.conj().T @ dense_hamiltonian(work.freeze(0), f) @ iso
    before = work.average()[0]
    work.update_psi()
    phi = work.phi[0]
    assert np.vdot(phi, h @ phi).real >= np.linalg.eigvalsh(h)[-1] - 1e-8
    assert work.average()[0] >= before


@pytest.mark.parametrize("kind, fixed", [("route", False), ("meas", True)])
def test_carried_success_table_equals_a_fresh_evaluation(kind, fixed):
    """The table an update leaves behind is, bit for bit, the one a fresh
    evaluation of the new state gives: after each update of three sweeps,
    and after a restart leaves the batch.  The second psi step of a sweep
    finds psi at the top and keeps it."""
    f = an.ip_function(2)
    work = at.seesaw._Work(kind, f, at.attack_layout(a=1, ac=1), 5, range(3), fixed)

    def check():
        if work.succ is not None:
            fresh = work.successes(work.after_locals())
            assert work.succ.tobytes() == fresh.tobytes()

    work.average()
    check()
    carried = 0
    for _ in range(3):
        for update in (work.update_recovery if kind == "route" else work.update_effects,
                       lambda: work.update_local(0), lambda: work.update_local(1),
                       work.update_psi, work.update_psi):
            update()
            check()
            carried += work.succ is not None
    assert carried == 12   # the local and psi updates carry it; the finale's clear it
    work = work.select(np.array([True, False, True]))
    assert work.succ.shape == (2, 16)
    check()
    work.update_local(0)
    check()
