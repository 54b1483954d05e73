import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpv import analysis as an
from qpv.analysis import commcplx

from cc_reference import oneway_cc_reference, smp_cc_reference


# ---------------------------------------------------------------------------
# boolean functions
# ---------------------------------------------------------------------------

def test_ip1_is_and():
    np.testing.assert_array_equal(an.ip_function(1).table, [0, 0, 0, 1])


def test_ip2_values():
    ip2 = an.ip_function(2)
    assert ip2.value(0b11, 0b11) == 0
    assert ip2.value(0b10, 0b11) == 1


def test_function_table_validation():
    with pytest.raises(ValueError):
        an.BooleanFunction(1, np.array([0, 1, 0]))
    with pytest.raises(ValueError):
        an.BooleanFunction(1, np.array([0, 1, 0, 2]))
    with pytest.raises(ValueError):
        an.ip_function(1).value(2, 0)


def _parity_reference(n, combine):
    """The int64 builder the uint8 one replaced: n shifted passes over
    combine(x, y) of every input pair."""
    xs = np.arange(1 << n)
    merged = combine(xs[:, None], xs[None, :])
    bits = np.zeros(merged.shape, dtype=np.uint8)
    for k in range(n):
        bits ^= ((merged >> k) & 1).astype(np.uint8)
    return bits.reshape(-1)


@pytest.mark.parametrize("n", range(1, 12))
def test_parity_tables_match_the_int64_builder(n):
    assert np.array_equal(an.ip_function(n).table, _parity_reference(n, np.bitwise_and))
    assert np.array_equal(an.xor_function(n).table, _parity_reference(n, np.bitwise_xor))


@pytest.mark.parametrize("build", [an.ip_function, an.xor_function])
def test_parity_table_peak_memory_is_bounded(build):
    """At n = 11 building the 4 MB table peaks at most at twice its bytes."""
    tracemalloc.start()
    try:
        table = build(11).table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * table.nbytes


def test_hamming_random_pair_binomial_oracle():
    vals = []
    for s in range(100):
        f = an.random_function(3, 1000 + s)
        g = an.random_function(3, 2000 + s)
        vals.append(np.count_nonzero(f.table != g.table) / 64)
    assert abs(np.mean(vals) - 0.5) <= 0.03


def test_file_roundtrip(tmp_path):
    f = an.random_function(2, 9)
    path = tmp_path / "f.txt"
    path.write_text(f"n=2\n{''.join(map(str, f.table))}\n")
    g = an.load_function(path)
    assert g.n == f.n and np.array_equal(f.table, g.table)
    path.write_text("m=2\n0000\n")
    with pytest.raises(ValueError):
        an.load_function(path)


def test_function_from_spec():
    f = an.function_from_spec({"kind": "table", "n": 1, "table": "0110"})
    assert f.value(0, 1) == 1 and f.value(1, 1) == 0
    with pytest.raises(ValueError):
        an.function_from_spec({"kind": "bogus"})
    with pytest.raises(ValueError, match="^table entries must be bits$"):
        an.function_from_spec({"kind": "table", "n": 1, "table": "01\u00e90"})


@pytest.mark.parametrize("kind", ["ip", "xor", "constant", "random", "table"])
def test_function_n_is_bounded_before_the_table_is_built(kind):
    """n = 13 is the first n whose 2^(2n) entries exceed PAIR_BUDGET; n = 12
    is admitted (checked on a short table, which fails on its length)."""
    spec = {"kind": kind, "seed": 0, "table": "0110"}
    with pytest.raises(an.BudgetExceeded, match="^f.n: a 2\\^26-entry table"):
        an.function_from_spec({**spec, "n": 13})
    if kind == "table":
        with pytest.raises(ValueError, match=f"^table must have length {1 << 24}$"):
            an.function_from_spec({**spec, "n": 12})


# ---------------------------------------------------------------------------
# volumes and certified counting
# ---------------------------------------------------------------------------

def test_hamming_volume_values():
    assert an.hamming_volume(4, 0) == 1
    assert an.hamming_volume(4, 2) == 11
    with pytest.raises(ValueError):
        an.hamming_volume(4, 5)


def test_hamming_volume_matches_enumeration():
    for n in (4, 8, 12):
        for a in (0, 1, n // 3, n // 2, n):
            count = sum(1 for v in range(1 << n) if bin(v).count("1") <= a)
            assert an.hamming_volume(n, a) == count


def test_volume_entropy_check():
    assert an.volume_entropy_check(20, Fraction(1, 4))
    for n in (8, 12, 16, 24):
        for lam in (Fraction(1, 4), Fraction(1, 8)):
            if (lam * n).denominator == 1:
                assert an.volume_entropy_check(n, lam)
    with pytest.raises(ValueError):
        an.volume_entropy_check(10, Fraction(1, 4))  # 2.5 not integral
    with pytest.raises(ValueError):
        an.volume_entropy_check(10, Fraction(3, 5))


def test_net_sizes():
    rep = an.net_size_report(0)
    assert rep.log2_na == pytest.approx(2 * np.log2(927))
    assert rep.log2_na == pytest.approx(19.7128, abs=1e-3)
    assert rep.k == pytest.approx(4 * np.log2(927))
    assert an.net_size_report(1).k / rep.k == pytest.approx(4.0)
    assert an.net_size_report(1).k == pytest.approx(16 * np.log2(927))
    assert rep.note == an.NET_DIMENSION_NOTE


def test_delta_margin():
    assert an.delta_margin_check()
    assert float(an.delta_margin_value()) == pytest.approx(0.006494, abs=1e-6)
    assert not an.delta_margin_check(Fraction(22, 10000))
    assert an.delta_margin_check(Fraction(0))


def test_counting_bound_examples():
    assert an.counting_bound(10, 0).passes
    assert an.counting_bound(12, 1).passes
    rep = an.counting_bound(10, 5)
    assert not rep.passes
    assert rep.log2_bound > -(1 << 10)
    assert "no guarantee" in rep.precondition_note
    rep9 = an.counting_bound(9, 0)
    assert "n >= 10" in rep9.precondition_note


def test_counting_bound_exhaustive_range():
    for n in range(10, 17):
        for q in range(0, (n - 10) // 2 + 1):
            assert an.counting_bound(n, q).passes, (n, q)


def test_attacker_qubit_bound():
    assert an.attacker_qubit_bound("random", n=10) == 0
    assert an.attacker_qubit_bound("random", n=30) == 10
    assert an.attacker_qubit_bound("random", n=11) == 0
    assert an.attacker_qubit_bound("cc", k=64) == 0
    assert an.attacker_qubit_bound("cc", k=63) == -1
    assert an.attacker_qubit_bound("cc", k=1) == -3
    assert an.attacker_qubit_bound("cc", k=256) == 1
    for k in range(1, 1 << 12):   # the largest q with 2^(2q + 6) <= k
        q = an.attacker_qubit_bound("cc", k=k)
        assert 1 << (2 * q + 6) <= k < 1 << (2 * q + 8)
    with pytest.raises(ValueError):
        an.attacker_qubit_bound("bogus")


@given(st.integers(min_value=1, max_value=60))
@settings(max_examples=40, deadline=None)
def test_qubit_bound_matches_inequality(n):
    q = an.attacker_qubit_bound("random", n=n)
    assert 2 * q <= n - 10
    assert 2 * (q + 1) > n - 10


# ---------------------------------------------------------------------------
# communication complexity brute force
# ---------------------------------------------------------------------------

def test_smp_trivial_cases():
    const = an.constant_function(1, 1)
    assert an.smp_cc_bruteforce(const, 1) == 0
    assert an.smp_cc_bruteforce(an.ip_function(1), 1) == 0
    assert an.smp_cc(an.ip_function(1)) == 1


def test_smp_ip2_regression_value():
    # frozen regression oracle from exhaustive enumeration
    assert an.smp_cc_bruteforce(an.ip_function(2), 1) == Fraction(3, 16)


def test_oneway_cases():
    fx = an.BooleanFunction(1, [0, 0, 1, 1])
    assert an.oneway_cc_bruteforce(fx, 1) == 0
    ip2 = an.ip_function(2)
    assert an.oneway_cc_bruteforce(ip2, 2) == 0     # send x outright
    err = an.oneway_cc_bruteforce(ip2, 1)
    assert err == Fraction(3, 16)
    # stated one-way bound for IP at these sizes is vacuous; the exact value
    # simply must be a valid error probability
    assert 0 <= err < Fraction(1, 2)


def test_oneway_never_worse_than_smp():
    for s in range(20):
        f = an.random_function(2, 500 + s)
        for k in (1, 2):
            assert (an.oneway_cc_bruteforce(f, k)
                    <= an.smp_cc_bruteforce(f, k) + Fraction(0))


def test_smp_error_monotone_in_k():
    for s in range(5):
        f = an.random_function(2, 900 + s)
        assert an.smp_cc_bruteforce(f, 2) <= an.smp_cc_bruteforce(f, 1)


def test_budget_guards():
    ip3 = an.ip_function(3)
    with pytest.raises(an.BudgetExceeded):
        an.smp_cc_bruteforce(ip3, 2)
    with pytest.raises(ValueError):
        an.smp_cc_bruteforce(ip3, 0)
    with pytest.raises(an.BudgetExceeded):
        an.oneway_cc_bruteforce(an.ip_function(3), 4)


def reference_cc_error(f, k, model):
    """Plain-Python brute force: every k-bit message map of Alice's (and, for
    SMP, of Bob's; one-way Bob sends y), each cell decided by majority."""
    side = 1 << f.n
    alice_maps = itertools.product(range(1 << k), repeat=side)
    best = side * side
    for a in alice_maps:
        bob_maps = (itertools.product(range(1 << k), repeat=side) if model == "smp"
                    else [tuple(range(side))])
        for b in bob_maps:
            ones, total = {}, {}
            for x in range(side):
                for y in range(side):
                    cell = (a[x], b[y])
                    total[cell] = total.get(cell, 0) + 1
                    ones[cell] = ones.get(cell, 0) + f.value(x, y)
            errors = 0
            for x in range(side):
                for y in range(side):
                    cell = (a[x], b[y])
                    guess = 1 if 2 * ones[cell] > total[cell] else 0
                    errors += f.value(x, y) != guess
            best = min(best, errors)
            if best == 0:
                return Fraction(0)
    return Fraction(best, side * side)


@pytest.mark.parametrize("n", [1, 2])
def test_cc_matches_plain_reference(n):
    funcs = [an.ip_function(n), an.xor_function(n), an.constant_function(n, 1),
             an.random_function(n, 11), an.random_function(n, 12)]
    for f in funcs:
        for k in (1, 2):
            assert an.smp_cc_bruteforce(f, k) == reference_cc_error(f, k, "smp")
            assert an.oneway_cc_bruteforce(f, k) == reference_cc_error(f, k, "oneway")


def test_cc_pinned_values():
    assert an.smp_cc_bruteforce(an.ip_function(3), 1) == Fraction(21, 64)
    assert an.oneway_cc_bruteforce(an.ip_function(3), 1) == Fraction(19, 64)
    assert an.oneway_cc_bruteforce(an.ip_function(4), 1) == Fraction(45, 128)


# every (model, n, k) inside PAIR_BUDGET with k < n, so with enumeration
CC_CASES = [("oneway", 2, 1), ("oneway", 3, 1), ("oneway", 3, 2), ("oneway", 4, 1),
            ("smp", 2, 1), ("smp", 3, 1)]
CC_BRUTEFORCE = {"smp": an.smp_cc_bruteforce, "oneway": an.oneway_cc_bruteforce}


def cc_tables(n):
    return st.lists(st.integers(0, 1), min_size=4 ** n, max_size=4 ** n).map(
        lambda bits: an.BooleanFunction(n, np.array(bits, dtype=np.uint8)))


@pytest.mark.parametrize("model,n,k", CC_CASES)
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_cc_matches_dense_reference(model, n, k, data):
    f = data.draw(cc_tables(n))
    reference = smp_cc_reference if model == "smp" else oneway_cc_reference
    assert CC_BRUTEFORCE[model](f, k) == reference(f, k)


@pytest.mark.parametrize("model,n,k", CC_CASES)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_cc_invariant_under_input_relabelling(model, n, k, data):
    # Alice's maps fix a(0) = 0; relabelled inputs move which x is 0
    f = data.draw(cc_tables(n))
    side = 1 << n
    xs = data.draw(st.permutations(range(side)))
    ys = data.draw(st.permutations(range(side)))
    m = f.communication_matrix()
    permuted = an.BooleanFunction(n, m[np.ix_(xs, ys)].reshape(-1))
    bruteforce = CC_BRUTEFORCE[model]
    err = bruteforce(f, k)
    assert bruteforce(permuted, k) == err
    if model == "smp":
        assert bruteforce(an.BooleanFunction(n, m.T.reshape(-1)), k) == err


def test_cc_k_at_least_n_skips_enumeration(monkeypatch):
    def enumerate_nothing(*args):
        raise AssertionError("enumerated although k >= n")

    monkeypatch.setattr(commcplx, "_least_error", enumerate_nothing)
    # SMP IP2 k=3 is inside the budget, and one block over all pairs was 8 GiB
    assert an.smp_cc_bruteforce(an.ip_function(2), 3) == 0
    assert an.oneway_cc_bruteforce(an.ip_function(2), 2) == 0
    # the budget guard runs before the k >= n shortcut
    with pytest.raises(an.BudgetExceeded):
        an.oneway_cc_bruteforce(an.ip_function(3), 4)


@pytest.mark.parametrize("model,n,k", [("smp", 2, 3), ("smp", 1, 6), ("oneway", 1, 12),
                                       ("oneway", 4, 1), ("oneway", 3, 2), ("smp", 3, 1)])
def test_cc_blocks_stay_small(model, n, k):
    # the first three are within the pair budget, but one block over all
    # pairs would have 2^30 (smp n=2 k=3), 2^36 (smp n=1 k=6) or 2^37
    # (oneway) int64 entries; with k >= n they now return 0 unenumerated.
    # The last three are the largest sizes the budget lets enumerate.
    expected = {("oneway", 4, 1): Fraction(45, 128), ("oneway", 3, 2): Fraction(3, 16),
                ("smp", 3, 1): Fraction(21, 64)}.get((model, n, k), 0)
    tracemalloc.start()
    try:
        assert CC_BRUTEFORCE[model](an.ip_function(n), k) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 22
