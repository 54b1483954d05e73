"""The block-batched verify suites and samplers against the per-trial
reference in ``verify_reference``: the same reports, ``repr`` for ``repr``,
and the same draws, bit for bit."""

import numpy as np
import pytest
import verify_reference as ref

from qpv import checks as ck
from qpv import qcore as qc
from qpv.attacks import good_sets
from qpv.attacks.strategy import bell_core, rest_registers
from qpv.checks import suites

# trial counts that cross a block boundary where the default count does
REDUCED = {"cit": 250, "recovery_overlap": 130, "low_fidelity_route": 40, "afw": 250,
           "fano_chain": 250, "meas_disjoint": 40, "m1_m2": 250}


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("name", sorted(ref.CHECKS))
def test_suite_matches_per_trial_reference(name, seed):
    trials = REDUCED[name]
    assert (repr(ck.CHECKS[name](trials=trials, seed=seed))
            == repr(ref.CHECKS[name](trials=trials, seed=seed)))


@pytest.mark.parametrize("name", sorted(ref.CHECKS))
def test_suite_matches_per_trial_reference_at_full_counts(name):
    assert repr(ck.CHECKS[name](seed=2)) == repr(ref.CHECKS[name](seed=2))


@pytest.mark.parametrize("seed", range(3))
def test_route_separation_without_perturbation_matches_reference(seed):
    """At eps = 0 nothing is drawn for the perturbation."""
    assert (repr(ck.check_low_fidelity_route(eps=0.0, trials=30, seed=seed))
            == repr(ref.check_low_fidelity_route(eps=0.0, trials=30, seed=seed)))


def test_refused_first_candidate_replays_its_trial(monkeypatch):
    """A trial whose first measuring candidate is refused reads its stream
    past the batch's row; the suite replays it through meas_member."""
    seed, chosen, layout = 4, 7, good_sets.small_attack_layout()
    first = ref.perturb_within(good_sets.meas_core(layout, 0), 0.25,
                               qc.stream(seed, "meas-sep", chosen))[0]
    figure = good_sets.meas_figure

    def refusing(vecs, layout, which, eps):
        value, member = figure(vecs, layout, which, eps)
        return value, member & ~np.all(vecs == first, axis=1)

    monkeypatch.setattr(good_sets, "meas_figure", refusing)
    monkeypatch.setattr(suites, "meas_figure", refusing)
    replayed = []
    member = suites.meas_member

    def recording(layout, which, eps, rng):
        out = member(layout, which, eps, rng)
        replayed.append(which)
        return out

    monkeypatch.setattr(suites, "meas_member", recording)
    assert (repr(ck.check_meas_disjoint(trials=20, seed=seed))
            == repr(ref.check_meas_disjoint(trials=20, seed=seed)))
    assert replayed.count("S0") >= 1


def test_unmoved_route_member_replays_its_trial(monkeypatch):
    """A trial whose side reports sin(a) = 0 drew no uniform, so its stream
    reads past the batch's row; the suite replays it through route_member.
    Alone, the trial is the witness, so the report shows its distance."""
    seed, layout = 4, good_sets.small_attack_layout()
    # trial 0's S0 noise after the projection, drawn as the reference draws it
    rng = qc.stream(seed, "route-sep", 0)
    regs, ret = good_sets.ROUTE_SIDES["S0"]
    phi = ref.random_unit_vector(layout.subdim(*rest_registers(layout, "R", ret)), rng)
    k = qc.haar_random_unitary(layout.subdim(*regs), rng)
    vec = qc.apply_vector_matrix(bell_core(layout, ret, phi), layout, k.conj().T, regs)
    noise = ref.random_unit_vector(vec.size, rng)
    stuck = noise - np.vdot(vec, noise) * vec

    def stalling(norm):
        """``norm``, but 0 for that noise, which then does not move its vector."""
        def wrapped(v):
            if v.shape[-1] != stuck.size:
                return norm(v)
            hit = np.all(v == stuck, axis=-1, keepdims=True)
            return np.where(hit, 0.0, norm(v)) if hit.any() else norm(v)
        return wrapped

    monkeypatch.setattr(qc, "vector_norm", stalling(qc.vector_norm))
    monkeypatch.setattr(ref, "vector_norm", stalling(ref.vector_norm))
    replayed = []
    member = suites.route_member

    def recording(layout, which, eps, rng):
        replayed.append(which)
        return member(layout, which, eps, rng)

    monkeypatch.setattr(suites, "route_member", recording)
    for trials in (1, 20):
        assert (repr(ck.check_low_fidelity_route(trials=trials, seed=seed))
                == repr(ref.check_low_fidelity_route(trials=trials, seed=seed)))
    assert replayed == ["S0", "S1"] * 2


def test_meas_member_falls_back_to_its_core(monkeypatch):
    """After 12 refused candidates meas_member returns a copy of the
    unperturbed core and leaves the stream where the per-trial sampler did."""
    monkeypatch.setattr(good_sets, "meas_figure",
                        lambda vecs, layout, which, eps: (None, np.zeros(len(vecs), bool)))
    layout = good_sets.small_attack_layout()
    for basis, which in enumerate(("S0", "S1")):
        got, want = qc.stream(3, "fallback", which), qc.stream(3, "fallback", which)
        out = good_sets.meas_member(layout, which, 0.25, got)
        assert np.array_equal(out, good_sets.meas_core(layout, basis)) and out.flags.writeable
        assert np.array_equal(out, ref.meas_member(layout, which, 0.25, want))
        assert got.random() == want.random()


@pytest.mark.parametrize("which", ["S0", "S1"])
@pytest.mark.parametrize("eps", [0.0, 0.25, 0.41])
def test_per_trial_members_match_reference(which, eps):
    """route_member and meas_member, the batch of one, draw what the
    per-trial samplers drew and leave the stream where they left it."""
    layout = good_sets.small_attack_layout()
    for t in range(4):
        for member, reference in ((good_sets.route_member, ref.route_member),
                                  (good_sets.meas_member, ref.meas_member)):
            got, want = qc.stream(9, "member", t), qc.stream(9, "member", t)
            assert np.array_equal(member(layout, which, eps, got),
                                  reference(layout, which, eps, want))
            assert got.random() == want.random()


@pytest.mark.parametrize("dim", [1, 2, 8, 128])
def test_unit_finish_rows_equal_random_unit_vector(dim):
    rows = qc.stream(5, "unit-rows", dim).standard_normal((7, 2 * dim))
    rng = qc.stream(5, "unit-rows", dim)
    singles = [qc.random_unit_vector(dim, rng) for _ in range(7)]
    assert np.array_equal(qc.unit_finish(rows), np.stack(singles))
    rng = qc.stream(5, "unit-rows", dim)
    assert all(np.array_equal(v, ref.random_unit_vector(dim, rng)) for v in singles)


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_density_finish_rows_equal_random_density_matrix(dim):
    rows = qc.stream(6, "rho-rows", dim).standard_normal((7, 2, dim, dim))
    rng = qc.stream(6, "rho-rows", dim)
    singles = [qc.random_density_matrix(dim, rng) for _ in range(7)]
    assert np.array_equal(qc.density_finish(rows), np.stack(singles))
    rng = qc.stream(6, "rho-rows", dim)
    assert all(np.array_equal(r, ref.random_density_matrix(dim, rng)) for r in singles)


def test_noise_parallel_to_the_vector_does_not_move_it():
    """Noise that finishes to the vector itself leaves nothing after the
    projection: the row keeps its vector, sin(a) = 0, and a generator in
    place of the uniforms draws none."""
    vec = qc.random_unit_vector(8, qc.stream(1, "parallel"))
    noise = 3.0 * np.concatenate([vec.real, vec.imag])[None]
    rng, fresh = qc.stream(2, "uniform"), qc.stream(2, "uniform")
    for uniforms in (np.array([0.5]), rng):
        out, sin_a = good_sets.perturb_within(vec[None], 0.2, noise, uniforms)
        assert sin_a[0] == 0.0
        assert np.array_equal(out[0], vec / qc.vector_norm(vec))
    assert rng.random() == fresh.random()


class _Replay:
    """A stand-in generator that returns fixed normals and a fixed uniform."""

    def __init__(self, normals, uniform):
        self.normals, self.uniform = normals, uniform

    def standard_normal(self, size):
        return self.normals[:size]

    def random(self):
        return self.uniform


@pytest.mark.parametrize("eps, uniform", [(0.41, 0.716291592587056),
                                          (0.25, 0.8626268247663503)])
def test_perturbation_squares_sin_a_as_float_pow(eps, uniform):
    """At these uniforms sqrt(1 - s * s) and sqrt(1 - s ** 2) differ in the
    last bit; the batch must round as the per-trial float ** 2 did."""
    vec = qc.random_unit_vector(8, qc.stream(3, "pow"))
    normals = qc.stream(4, "pow").standard_normal(16)
    out, sin_a = good_sets.perturb_within(vec[None], eps, normals[None], np.array([uniform]))
    want, want_sin = ref.perturb_within(vec, eps, _Replay(normals, uniform))
    assert sin_a[0] == want_sin
    assert np.array_equal(out[0], want)


@pytest.mark.parametrize("name", sorted(ck.CHECKS))
def test_zero_trials_are_refused(name):
    with pytest.raises(ValueError, match=f"^{name}: trials must be at least 1$"):
        ck.CHECKS[name](trials=0)
