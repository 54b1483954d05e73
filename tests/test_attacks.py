import functools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpv import analysis as an
from qpv import attacks as at
from qpv import qcore as qc
from qpv.attacks.execute import (
    BELL_EFFECTS,
    BELL_PROJECTOR,
    after_locals,
    bell_effect,
    bell_overlap,
    meas_branches,
    pair_success,
    route_finale,
)
from qpv.attacks.strategy import bell_core, returned_register

XOR = an.xor_function(1)
AND = an.ip_function(1)


def identity_route_strategy(f, **layout_kw):
    layout = at.attack_layout(**layout_kw)
    psi = bell_core(layout)
    return at.AttackStrategy(kind="route", n=f.n, layout=layout, psi=psi)


# ---------------------------------------------------------------------------
# execute_route
# ---------------------------------------------------------------------------

def test_execute_route_keep_strategy_on_constant_zero():
    f0 = an.constant_function(1, 0)
    strat = identity_route_strategy(f0)
    rep = at.epsilon_l_report(strat, f0)
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
    psi = bell_core(layout)
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
    fx = an.BooleanFunction(1, [0, 0, 1, 1])
    strat = readable_bit_strategy(fx, rotate_by_x=True)
    rep = at.epsilon_l_report(strat, fx)
    assert all(s == pytest.approx(1.0, abs=1e-12) for s in rep.per_pair.values())


def test_execute_meas_oblivious_bob_baseline():
    # Alice forwards the qubit; Bob measures it exactly, Alice has nothing:
    # joint success 1/2 on every pair
    layout = at.attack_layout(a=1, ac=1)
    psi = bell_core(layout)
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
# serialization
# ---------------------------------------------------------------------------

def test_strategy_serialization_lossless():
    outcome = at.seesaw_optimize(XOR, (1, 0, 0), kind="route", restarts=1, iters=5, seed=3)
    strat = outcome.strategy
    text = at.strategy_to_json(strat)
    back = at.strategy_from_json(text)
    assert at.strategy_to_json(back) == text
    for x, y in XOR.pairs():
        assert at.execute_route(back, XOR, x, y) == at.execute_route(strat, XOR, x, y)


def _encode_per_element(mat):
    """The reference encoder: each entry formatted on its own."""
    return [[f"{v.real.hex()},{v.imag.hex()}" for v in row]
            for row in np.asarray(mat, dtype=complex)]


# signed zeros, neighbours one ulp apart, subnormals and non-finite values,
# drawn often enough that entries repeat
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nextafter(1.0, 2.0),
                                math.nextafter(1.0, 0.0), 5e-324, -5e-324, 0.5,
                                math.inf, -math.inf, math.nan])
_PART = _EDGE_FLOATS | st.floats(allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_encode_matrix_matches_per_element_formatting(rows, cols, data):
    parts = data.draw(st.lists(st.tuples(_PART, _PART), min_size=rows * cols,
                               max_size=rows * cols))
    mat = np.array([complex(re, im) for re, im in parts]).reshape(rows, cols)
    for m in (mat, mat.T):
        assert at.strategy._encode_matrix(m) == _encode_per_element(m)
    back = at.strategy._decode_matrix(at.strategy._encode_matrix(mat), "mat")
    finite = np.isfinite(mat.real) & np.isfinite(mat.imag)
    assert np.array_equal(back.view(np.uint64).reshape(rows, cols, 2)[finite],
                          mat.view(np.uint64).reshape(rows, cols, 2)[finite])


# the README's garden-hose protocol for f(x, y) = y
GH_Y = at.GardenHoseProtocol(pipes=2, alice={0: (("S", 1),), 1: (("S", 1),)},
                             bob={0: ((1, 2),), 1: ()})


def test_gardenhose_strategy_json_round_trips():
    strat = at.compile_gardenhose(GH_Y)
    text = at.strategy_to_json(strat)
    back = at.strategy_from_json(text)
    assert at.strategy_to_json(back) == text
    assert np.array_equal(back.psi, strat.psi)
    for x in (0, 1):
        assert np.array_equal(back.matrix("alice", x), strat.matrix("alice", x))


@pytest.mark.parametrize("family", ["l_final", "qubit_site"])
def test_strategy_json_pair_keys_have_two_parts(family):
    doc = json.loads(at.strategy_to_json(at.compile_gardenhose(GH_Y)))
    doc[family]["0,1,1"] = doc[family]["0,1"]
    with pytest.raises(ValueError):
        at.strategy_from_json(json.dumps(doc))


@pytest.mark.parametrize("family, key, shown", [
    ("alice", "2", "2"), ("bob", "-1", "-1"), ("k_final", "0,2", "(0, 2)"),
    ("l_final", "7,7", "(7, 7)"), ("pi_effect", "2,0", "(2, 0)"),
    ("sigma_effect", "0,-1", "(0, -1)")])
def test_strategy_json_keys_are_inputs_of_n(family, key, shown):
    """An n = 1 strategy refuses a family entry outside its inputs (which it
    would never use), naming the family and the key."""
    if family in ("pi_effect", "sigma_effect"):
        strat, source = readable_bit_strategy(XOR), family
    else:
        strat, source = at.compile_gardenhose(GH_Y), "alice"
    doc = json.loads(at.strategy_to_json(strat))
    doc[family][key] = next(iter(doc[source].values()))
    with pytest.raises(ValueError, match=rf"^{family}\[{re.escape(shown)}\]: not keyed by inputs"):
        at.strategy_from_json(json.dumps(doc))


def test_meas_strategy_serialization():
    outcome = at.seesaw_optimize(AND, (1, 0, 1), kind="meas", restarts=1, iters=5, seed=4,
                                 unentangled=True)
    text = at.strategy_to_json(outcome.strategy)
    back = at.strategy_from_json(text)
    assert back.kind == "meas"
    rep_a = at.epsilon_l_report(outcome.strategy, AND)
    rep_b = at.epsilon_l_report(back, AND)
    assert rep_a.per_pair == rep_b.per_pair


# strategies the package builds at n <= 2
GH_Y2 = at.GardenHoseProtocol(pipes=2, alice={x: (("S", 1),) for x in range(4)},
                              bob={0: ((1, 2),), 2: ((1, 2),)})


@functools.lru_cache(maxsize=1)
def _built_documents():
    ip2 = an.ip_function(2)
    built = [at.seesaw_optimize(XOR, (1, 0, 1), kind="route", restarts=1, iters=2, seed=3),
             at.seesaw_optimize(AND, (1, 0, 1), kind="meas", restarts=1, iters=2, seed=4),
             at.seesaw_optimize(ip2, (1, 0, 0), kind="route", restarts=1, iters=1, seed=0),
             at.seesaw_optimize(ip2, (1, 0, 0), kind="meas", restarts=1, iters=1, seed=0)]
    built = [outcome.strategy for outcome in built] + [at.keep_q_attack(XOR),
                                                       at.keep_q_attack(ip2)]
    built += [at.compile_gardenhose(GH_Y), at.compile_gardenhose(GH_Y2)]
    return tuple(at.strategy_to_json(s) for s in built)


def test_built_strategies_round_trip():
    for text in _built_documents():
        assert at.strategy_to_json(at.strategy_from_json(text)) == text


_TABLES = (*at.strategy.FAMILIES, "qubit_site")
# a refused document names the place of its fault: the document, psi, a
# table, or the kind that a table contradicts
_NAMES_PLACE = re.compile(rf"^(strategy[.:]|(psi|{'|'.join(_TABLES)})\b"
                          r"|(routing|measuring) strategies )")
_WRONG = [None, 0, 1.5, True, "x", [], {}, [["x"]]]
# malformed keys, keys outside every input range, and well-formed ones
_RENAMES = ["", "x", "01", "+1", " 1", "1_0", "1,", "0,,1", "0,0,0", "9", "-1", "0", "1,1"]
# malformed matrix cells, other spellings of 1 and 1/2, and a well-formed one
_CELLS = ["", "zz", ",", "0x1p+0,0x0p+0,1", "0xzz,0x0.0p+0", "0x1p+0,0x0p+0", "0.5,0", "1,0",
          " 0x1.0000000000000p+0,0x0.0p+0", "0X1.0000000000000P+0,0x0.0p+0",
          "0x1.0000000000000p-1,0x0.0p+0"]


def _normal(doc):
    """``doc`` as it re-encodes: an absent or null unitary family as no
    entries, any other absent table as null."""
    out = dict(doc)
    for name, (_, _, check) in at.strategy.FAMILIES.items():
        if out.get(name) is None:
            out[name] = {} if check is qc.check_unitary else None
    out.setdefault("qubit_site", None)
    return out


def _mutate(doc, data):
    """One fault drawn into a strategy document: a key dropped, renamed or
    malformed, a value of the wrong type, a matrix of the wrong shape or
    scaled by 2 (so not unitary, an effect or a state), a matrix cell
    replaced, an n below 1 or one larger, a site outside A/B or a psi kind
    other than pure."""
    tables = [(name,) for name in _TABLES if doc[name]]
    matrices = [("psi", "data")] + [(name, key) for name in at.strategy.FAMILIES
                                    for key in doc[name] or ()]
    pick = lambda items: data.draw(st.sampled_from(sorted(items)))

    def at_path(path):
        node = doc
        for step in path:
            node = node[step]
        return node

    fault = pick(["drop", "rename", "retype", "shape", "scale", "cell", "n", "site",
                  "psi_kind"])
    if fault in ("drop", "rename"):
        owner = at_path(pick([(), ("psi",), *tables]))
        value = owner.pop(pick(owner))
        if fault == "rename":
            owner[pick(_RENAMES)] = value
    elif fault == "retype":
        paths = [(key,) for key in doc] + [("psi", "kind"), ("psi", "data")]
        paths += [("layout", i) for i in range(len(doc["layout"]))]
        paths += [(name, key) for (name,) in tables for key in doc[name]]
        path = pick(paths + [pick(matrices)])
        if path in matrices and data.draw(st.booleans()):
            rows = at_path(path)
            path = (*path, data.draw(st.integers(0, len(rows) - 1)))
            if data.draw(st.booleans()):
                path = (*path, data.draw(st.integers(0, len(rows[0]) - 1)))
        now = at_path(path)
        at_path(path[:-1])[path[-1]] = data.draw(
            st.sampled_from([v for v in _WRONG if type(v) is not type(now)]))
    elif fault in ("shape", "scale"):
        path = pick(matrices)
        rows = at_path(path)
        if fault == "shape":
            rows = {"row": rows[:-1], "column": [row[:-1] for row in rows],
                    "extra": rows + rows[:1]}[pick(["row", "column", "extra"])]
        else:
            rows = at.strategy._encode_matrix(2 * at.strategy._decode_matrix(rows, "m"))
        at_path(path[:-1])[path[-1]] = rows
    elif fault == "cell":
        rows = at_path(pick(matrices))
        row = rows[data.draw(st.integers(0, len(rows) - 1))]
        row[data.draw(st.integers(0, len(row) - 1))] = pick(_CELLS)
    elif fault == "n":
        doc["n"] = pick([-2, -1, 0, doc["n"] + 1])
    elif fault == "site":
        sites = doc["qubit_site"] or {}
        doc["qubit_site"] = {**sites, pick(list(sites) or ["0,0"]): pick(["C", "", "a", "AB"])}
    else:
        doc["psi"]["kind"] = pick(["bogus", "Pure", "", "mixed", "mixed ", "density"])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_strategy_document_is_refused_by_place_or_round_trips(data):
    """A faulty strategy document either loads and re-encodes to itself, or
    is refused with a ValueError naming the place; nothing else escapes."""
    built = _built_documents()
    doc = json.loads(built[data.draw(st.integers(0, len(built) - 1))])
    _mutate(doc, data)
    try:
        back = at.strategy_from_json(json.dumps(doc))
    except ValueError as err:
        assert _NAMES_PLACE.match(str(err)), str(err)
    else:
        assert at.strategy_to_json(back) == json.dumps(_normal(doc), sort_keys=True)


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
    # a density matrix, and a unit vector on the whole layout, are refused
    with pytest.raises(ValueError, match="vector of length 8"):
        at.AttackStrategy(kind="route", n=1, layout=layout, psi=np.outer(psi, psi.conj()))
    with pytest.raises(ValueError, match=re.escape("psi is not |Omega>_RA x phi: "
                                                   "<Omega|rho_RA|Omega> = 0.")):
        at.AttackStrategy(kind="route", n=1, layout=layout,
                          psi=qc.random_unit_vector(layout.dim, qc.stream(1)))
    with pytest.raises(ValueError, match="^registers R, A and B are one qubit each$"):
        wide = at.attack_layout(a=2)
        at.AttackStrategy(kind="meas", n=1, layout=wide, psi=np.eye(wide.dim)[0])


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


def test_matrix_reads_every_family_through_the_format_table():
    """A missing unitary is the identity on its family's registers, a
    missing effect a KeyError naming the pair."""
    strat = readable_bit_strategy(XOR)
    for name, (pair_keyed, regs, _) in at.strategy.FAMILIES.items():
        key = (1, 0) if pair_keyed else 1
        stored = (getattr(strat, name) or {}).get(key)
        expected = np.eye(strat.layout.subdim(*regs)) if stored is None else stored
        np.testing.assert_array_equal(strat.matrix(name, key), expected)
    partial = at.AttackStrategy(kind="meas", n=1, layout=strat.layout, psi=strat.psi,
                                pi_effect={(0, 0): strat.pi_effect[(0, 0)]}, sigma_effect={})
    with pytest.raises(KeyError, match=re.escape("no measurement for input pair (1, 1)")):
        partial.matrix("sigma_effect", (1, 1))
    with pytest.raises(ValueError, match="^measuring strategies route no qubit to a site$"):
        at.AttackStrategy(kind="meas", n=1, layout=strat.layout, psi=strat.psi,
                          pi_effect={}, sigma_effect={}, qubit_site={(0, 0): "A"})


# ---------------------------------------------------------------------------
# S-set membership
# ---------------------------------------------------------------------------

def test_meas_figure_uncorrelated():
    lay = at.small_attack_layout()
    vec = np.zeros(lay.dim, dtype=complex)
    vec[0] = 1.0
    vec = qc.apply_on_qubits(vec, lay.total_qubits, [(qc.H, lay.positions("R"))])
    fig, member = at.good_sets.meas_figure(vec[None], lay, "S0", 0.3)
    assert fig[0] == pytest.approx(0.5, abs=1e-12)
    assert not member[0]
    # eps > sqrt(1/2) makes the 1-eps^2 threshold reachable by guessing
    assert at.good_sets.meas_figure(vec[None], lay, "S0", 0.75)[1][0]


@pytest.mark.parametrize("which", ["S0", "S1"])
@pytest.mark.parametrize("eps", [0.0, 0.2, 0.41])
def test_route_members_stay_recoverable(which, eps):
    """The recovery unitary K that built a routing member returns it to
    within purified distance sin(a) <= eps of the Bell pair with R."""
    lay = at.small_attack_layout()
    regs, ret = at.good_sets.ROUTE_SIDES[which]
    ends = at.good_sets.route_draws(lay, which, eps)
    rng = qc.stream(22, "route-members", which)
    rows = rng.standard_normal((200, ends[-1]))
    vecs, sin_a = at.good_sets.route_members(lay, which, eps, rows, rng.random(200))
    d = lay.subdim(*regs)
    k = qc.haar_finish(rows[:, ends[0]:ends[1]].reshape(-1, 2, d, d))
    value = "AB".index(ret)   # the f(x, y) that names the returned register
    f2 = bell_overlap(qc.apply_vector_matrix(vecs, lay, k, regs), lay, value)
    # sqrt(1 - F^2) loses half the float precision near F = 1
    assert np.all(np.sqrt(np.maximum(0.0, 1.0 - f2)) <= sin_a + 5e-8)
    assert np.all(sin_a <= eps)


def test_route_disjointness_sampled():
    lay = at.small_attack_layout()
    eps = 0.41
    bound = math.sqrt(3) / 2 - 2 * eps
    rng = qc.stream(55, "route-disjoint")
    psi = {}
    for which in ("S0", "S1"):
        rows = rng.standard_normal((100, at.good_sets.route_draws(lay, which, eps)[-1]))
        psi[which] = at.route_members(lay, which, eps, rows, rng.random(100))[0]
    p = qc.purified_distance_pure(psi["S0"], psi["S1"])
    assert np.all(p > bound - 1e-9)
    assert np.all(p > 0.046)


def test_meas_disjointness_sampled():
    lay = at.small_attack_layout()
    rng = qc.stream(56, "meas-disjoint")
    phi0, phi1 = (at.meas_members(lay, which, 0.3, rng.standard_normal((50, 2 * lay.dim)),
                                  rng.random(50)) for which in ("S0", "S1"))
    for phi, which in ((phi0, "S0"), (phi1, "S1")):
        assert at.good_sets.meas_figure(phi, lay, which, 0.3)[1].all()
    assert np.all(qc.purified_distance_pure(phi0, phi1) > 0.013)


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
                bell_overlap(after, layout, values[rows]),
                bell_effect(after, layout, values[rows]), last)

    batched = kernels(slice(None))
    for i in range(b):
        for out, single in zip(batched, kernels(slice(i, i + 1))):
            assert np.array_equal(out[i:i + 1], single)


# ---------------------------------------------------------------------------
# the Bell test: one effect on (R, A, B) indexed by f(x, y)
# ---------------------------------------------------------------------------

def bell_effect_reference(vecs, layout, values):
    """The Bell test split by returned register: one apply of the 4 x 4
    projector on (R, ret) per register, scattered back into place.  The
    reference the effect-table kernel must equal bit for bit."""
    rets = np.array([returned_register(v) for v in np.broadcast_to(values, len(vecs))])
    out = np.empty_like(vecs)
    for ret in ("A", "B"):
        idx = np.flatnonzero(rets == ret)
        if idx.size:
            out[idx] = qc.apply_vector_matrix(vecs[idx], layout, BELL_PROJECTOR, ("R", ret))
    return out


def test_bell_effects_table():
    # v = 0: the projector on (R, A), the identity on B; v = 1: the same
    # conjugated by the A-B swap, so the projector sits on (R, B)
    on_ra = qc.kron_le(BELL_PROJECTOR, np.eye(2))
    swap_ab = np.eye(8)[[i & 1 | (i >> 2 & 1) << 1 | (i >> 1 & 1) << 2 for i in range(8)]]
    assert np.allclose(BELL_EFFECTS[0], on_ra, atol=1e-15)
    assert np.allclose(BELL_EFFECTS[1], swap_ab @ on_ra @ swap_ab, atol=1e-15)
    assert not BELL_EFFECTS.flags.writeable


@pytest.mark.parametrize("at_width", [0, 1, 2])
@pytest.mark.parametrize("ac_width", [0, 1, 2])
def test_bell_effect_equals_split_reference(at_width, ac_width):
    layout = at.attack_layout(1, at_width, ac_width)
    rng = qc.stream(35, "bell-effect", at_width, ac_width)
    b = 12
    vecs = np.stack([qc.random_unit_vector(layout.dim, rng) for _ in range(b)])
    mixed = rng.integers(0, 2, size=b)
    cases = [(vecs, np.zeros(b, dtype=int)), (vecs, np.ones(b, dtype=int)), (vecs, mixed),
             (vecs[3:4], mixed[3:4]), (vecs, 0), (vecs, 1)]
    for rows, values in cases:
        ref = bell_effect_reference(rows, layout, values)
        out = bell_effect(rows, layout, values)
        if layout.total_qubits == 3:
            # the effect spans every qubit, so numpy's matmul takes its
            # matrix-vector path, which rounds a sum of two products
            # differently from the 4 x 4 matrix-matrix one: at most an ulp
            np.testing.assert_allclose(out, ref, rtol=0, atol=1e-15)
            continue
        assert out.tobytes() == ref.tobytes()
        inner = np.einsum("bi,bi->b", rows.conj(), ref).real
        assert bell_overlap(rows, layout, values).tobytes() == inner.tobytes()
