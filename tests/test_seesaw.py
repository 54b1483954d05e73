import math

import numpy as np
import pytest

from qpv import analysis as an
from qpv import attacks as at
from qpv import qcore as qc

COS2_PI8 = math.cos(math.pi / 8) ** 2


def test_route_constant_function_reaches_one():
    out = at.seesaw_optimize(an.constant_function(1, 0), q=1, kind="route",
                             restarts=3, iters=40, seed=11)
    assert out.best_value >= 1 - 1e-6


def test_route_alice_local_function_reaches_one():
    fx = an.projection_function(1, 0, "x")
    out = at.seesaw_optimize(fx, q=2, kind="route", restarts=6, iters=60, seed=12)
    assert out.best_value >= 1 - 1e-6


@pytest.mark.parametrize("kind", ["route", "meas"])
def test_restart_values_never_exceed_best(kind):
    out = at.seesaw_optimize(an.xor_function(1), q=1, kind=kind,
                             restarts=4, iters=25, seed=13)
    assert max(out.restart_values) == pytest.approx(out.best_value)
    # the executor re-scores the frozen strategy with the optimizer's kernels
    assert out.report.average == pytest.approx(out.best_value, abs=1e-12)


def test_meas_xor_unentangled_hits_breidbart_value():
    layout = at.attack_layout(a=1, at=0, ac=1)
    psi0 = at.unentangled_product_state(layout)
    out = at.seesaw_optimize(an.xor_function(1), kind="meas", restarts=8,
                             iters=60, seed=14, split=(1, 0, 1), fix_psi=psi0)
    assert out.best_value == pytest.approx(COS2_PI8, abs=5e-4)
    assert out.best_value <= 1 - 1e-9


def test_meas_and_unentangled_exceeds_breidbart_value():
    # the x=0 pairs fix the basis, so the optimum is (1 + cos^2(pi/8))/2
    layout = at.attack_layout(a=1, at=0, ac=1)
    psi0 = at.unentangled_product_state(layout)
    out = at.seesaw_optimize(an.ip_function(1), kind="meas", restarts=8,
                             iters=60, seed=15, split=(1, 0, 1), fix_psi=psi0)
    assert out.best_value == pytest.approx((1 + COS2_PI8) / 2, abs=5e-4)


def test_angle_grid_oracles():
    xor = an.xor_function(1)
    conj = an.ip_function(1)
    assert at.angle_grid_value(xor, 2000) == pytest.approx(COS2_PI8, abs=1e-5)
    assert at.angle_grid_value(conj, 2000) == pytest.approx((2 + math.sqrt(10) / 2) / 4,
                                                            abs=1e-5)
    assert at.angle_grid_value(conj, 2000, per_x=True) == pytest.approx(
        (1 + COS2_PI8) / 2, abs=1e-5)


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
    layout = at.attack_layout(a=1, at=0, ac=1)
    psi0 = at.unentangled_product_state(layout)
    out = at.seesaw_optimize(an.xor_function(1), kind="meas", restarts=2,
                             iters=15, seed=16, split=(1, 0, 1), fix_psi=psi0)
    assert abs(np.vdot(out.strategy.psi, psi0)) == pytest.approx(1.0, abs=1e-12)


def test_split_validation():
    with pytest.raises(ValueError):
        at.default_split(0)
    with pytest.raises(ValueError):
        layout = at.attack_layout(a=1, at=1, ac=0)
        at.seesaw_optimize(an.xor_function(1), q=3, kind="route", restarts=1,
                           iters=2, seed=1, fix_psi=at.unentangled_product_state(layout))


def test_search_settings_rejected_before_the_first_restart():
    xor = an.xor_function(1)
    with pytest.raises(ValueError, match="'route' or 'meas'"):
        at.seesaw_optimize(xor, kind="routing")
    with pytest.raises(ValueError, match="iters"):
        at.seesaw_optimize(xor, iters=-3)
    with pytest.raises(ValueError, match="1-qubit A register"):
        at.seesaw_optimize(xor, kind="route", split=(2, 0, 0))


# seed-0 restart values of the benchmark's three see-saw configs, recorded
# with the per-pair sweeps that the pair-batched ones replaced
PINNED_RESTARTS = {
    "seesaw_meas_and": (dict(f=an.ip_function(1), kind="meas", q=2, restarts=8, iters=8),
                        [0.8749999715734185, 0.9267766952953653, 0.9267766952943856,
                         0.9267684860655999, 0.92677669526264, 0.9267766952951799,
                         0.8749993174380103, 0.9267451548003287]),
    "seesaw_route_q3": (dict(f=an.ip_function(1), kind="route", q=3, restarts=3, iters=4),
                        [0.9136338659643903, 0.9098032651140219, 0.9144923930237518]),
    "seesaw_route_n2": (dict(f=an.ip_function(2), kind="route", q=2, restarts=2, iters=2),
                        [0.7808987954425892, 0.7925634325355785]),
}


@pytest.mark.parametrize("name", sorted(PINNED_RESTARTS))
def test_pinned_restart_values(name):
    cfg, expected = PINNED_RESTARTS[name]
    fix_psi = (at.unentangled_product_state(at.attack_layout(a=1, ac=1))
               if cfg["kind"] == "meas" else None)
    out = at.seesaw_optimize(seed=0, fix_psi=fix_psi, **cfg)
    np.testing.assert_allclose(out.restart_values, expected, rtol=0, atol=1e-12)
    assert out.report.average == pytest.approx(out.best_value, abs=1e-12)
