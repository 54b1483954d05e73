import pytest

from qpv import analysis as an
from qpv import attacks as at
from qpv import qcore as qc

F_Y = an.BooleanFunction(1, [0, 1, 0, 1])
F_XOR = an.xor_function(1)

GH_Y = at.GardenHoseProtocol(pipes=2,
                             alice={0: (("S", 1),), 1: (("S", 1),)},
                             bob={0: ((1, 2),), 1: ()})
GH_XOR = at.GardenHoseProtocol(pipes=3,
                               alice={0: (("S", 1),), 1: (("S", 2),)},
                               bob={0: ((1, 3),), 1: ((2, 3),)})
GH_KEEP = at.GardenHoseProtocol(pipes=0, alice={}, bob={})


def test_water_tracing():
    side, hops, node = at.trace_water(GH_Y, 0, 0)
    assert side == 0 and len(hops) == 2 and node == 2
    side, hops, node = at.trace_water(GH_Y, 0, 1)
    assert side == 1 and len(hops) == 1 and node == 1
    assert at.computes(GH_Y, F_Y)
    assert at.computes(GH_XOR, F_XOR)
    assert at.computes(GH_KEEP, an.constant_function(1, 0))


def test_matching_validation():
    with pytest.raises(ValueError):
        at.GardenHoseProtocol(pipes=1, alice={0: (("S", 1), ("S", 1))}, bob={})
    with pytest.raises(ValueError):
        at.GardenHoseProtocol(pipes=1, alice={0: (("S", 2),)}, bob={})
    with pytest.raises(ValueError):
        at.GardenHoseProtocol(pipes=2, alice={}, bob={0: ((1, 1),)})


def test_compiled_keep_water():
    strat = at.compile_gardenhose(GH_KEEP)
    rep = at.epsilon_l_report(strat, an.constant_function(1, 0))
    assert all(v == pytest.approx(1.0, abs=1e-9) for v in rep.per_pair.values())


def test_compiled_f_y_perfect():
    strat = at.compile_gardenhose(GH_Y)
    rep = at.epsilon_l_report(strat, F_Y)
    assert all(v == pytest.approx(1.0, abs=1e-9) for v in rep.per_pair.values())
    assert strat.layout.total_qubits == 11


def test_compiled_xor_perfect():
    strat = at.compile_gardenhose(GH_XOR)
    rep = at.epsilon_l_report(strat, F_XOR)
    assert all(v == pytest.approx(1.0, abs=1e-9) for v in rep.per_pair.values())


def test_wrong_exit_side_scores_zero():
    # the f=y protocol run against XOR misroutes half the pairs
    strat = at.compile_gardenhose(GH_Y)
    rep = at.epsilon_l_report(strat, F_XOR)
    expected = {(x, y): (1.0 if F_Y.value(x, y) == F_XOR.value(x, y) else 0.0)
                for x, y in F_XOR.pairs()}
    for pair, val in expected.items():
        assert rep.per_pair[pair] == pytest.approx(val, abs=1e-9)


@pytest.mark.parametrize("gh,f", [(GH_Y, F_Y), (GH_XOR, F_XOR)])
def test_sampled_equals_deferred(gh, f):
    strat = at.compile_gardenhose(gh)
    for x, y in f.pairs():
        sampled = at.sampled_route_success(gh, f, x, y)
        deferred = at.execute_route(strat, f, x, y)
        assert sampled == pytest.approx(deferred, abs=1e-10)


def test_teleportation_primitive_via_one_pipe():
    # one pipe, Alice always teleports: the qubit must surface at Bob intact
    gh = at.GardenHoseProtocol(pipes=1, alice={0: (("S", 1),), 1: (("S", 1),)},
                               bob={0: (), 1: ()})
    f1 = an.constant_function(1, 1)
    assert at.computes(gh, f1)
    strat = at.compile_gardenhose(gh)
    rep = at.epsilon_l_report(strat, f1)
    assert all(v == pytest.approx(1.0, abs=1e-9) for v in rep.per_pair.values())
