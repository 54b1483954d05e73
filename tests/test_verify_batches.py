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


def _reference_members(member, seed, name, trials, eps):
    """Each trial's (S0, S1) members as the per-trial reference draws them
    from ``stream(seed, name, t)``, one after the other."""
    layout = good_sets.small_attack_layout()
    return np.array([[member(layout, which, eps, rng) for which in ("S0", "S1")]
                     for rng in qc.trial_streams(seed, name, trials)])


def test_refused_candidate_is_its_core(monkeypatch):
    """A measuring candidate that meas_figure refuses becomes the core and
    draws nothing more: its trial's other side and the later trials keep
    their draws, and the suite still matches the per-trial reference."""
    seed, chosen, layout = 4, 7, good_sets.small_attack_layout()
    core = good_sets.meas_core(layout, 0)
    first = ref.perturb_within(core, 0.25, qc.stream(seed, "meas-sep", chosen))[0]
    before = _reference_members(ref.meas_member, seed, "meas-sep", 20, 0.25)
    figure = good_sets.meas_figure

    def refusing(vecs, layout, which, eps):
        value, member = figure(vecs, layout, which, eps)
        return value, member & ~np.all(vecs == first, axis=1)

    monkeypatch.setattr(good_sets, "meas_figure", refusing)
    after = _reference_members(ref.meas_member, seed, "meas-sep", 20, 0.25)
    assert np.array_equal(before[chosen, 0], first)
    assert np.array_equal(after[chosen, 0], core)
    # the suite's rows: every trial's S0 row, then its S1 row
    [(_, [(noise, u), _])] = suites._draw_blocks(seed, "meas-sep", 20, (2 * layout.dim,) * 2,
                                                 True)
    assert np.array_equal(good_sets.meas_members(layout, "S0", 0.25, noise, u), after[:, 0])
    after[chosen, 0] = first
    assert np.array_equal(after, before)
    assert (repr(ck.check_meas_disjoint(trials=20, seed=seed))
            == repr(ref.check_meas_disjoint(trials=20, seed=seed)))


def test_parallel_route_noise_stays_and_draws_its_uniform(monkeypatch):
    """A side whose noise is parallel to its vector keeps the vector, with
    sin(a) = 0, and still draws its uniform: its trial's other side and the
    later trials keep their draws.  Alone, the trial is the witness, so the
    report shows its distance."""
    seed, layout = 4, good_sets.small_attack_layout()
    # trial 0's S0 noise after the projection, drawn as the reference draws it
    rng = qc.stream(seed, "route-sep", 0)
    regs, ret = good_sets.ROUTE_SIDES["S0"]
    phi = ref.random_unit_vector(layout.subdim(*rest_registers(layout, "R", ret)), rng)
    k = qc.haar_random_unitary(layout.subdim(*regs), rng)
    vec = qc.apply_vector_matrix(bell_core(layout, ret, phi), layout, k.conj().T, regs)
    noise = ref.random_unit_vector(vec.size, rng)
    stuck = noise - np.vdot(vec, noise) * vec
    stayed = vec / ref.vector_norm(vec)
    before = _reference_members(ref.route_member, seed, "route-sep", 20, 0.41)

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
    after = _reference_members(ref.route_member, seed, "route-sep", 20, 0.41)
    assert np.array_equal(after[0, 0], stayed)
    after[0, 0] = before[0, 0]
    assert np.array_equal(after, before)
    # trial 0's S0 row, as the suite draws it
    [(_, [(z0, u0)])] = suites._draw_blocks(seed, "route-sep", 1,
                                            good_sets.route_draws(layout, "S0", 0.41)[-1:], True)
    psi, sin_a = good_sets.route_members(layout, "S0", 0.41, z0, u0)
    assert sin_a[0] == 0.0 and np.array_equal(psi[0], stayed)
    for trials in (1, 20):
        assert (repr(ck.check_low_fidelity_route(trials=trials, seed=seed))
                == repr(ref.check_low_fidelity_route(trials=trials, seed=seed)))


def test_meas_member_falls_back_to_its_core(monkeypatch):
    """Every row that meas_figure refuses is a writeable copy of the
    unperturbed core, and the per-trial sampler reads one noise row and one
    uniform before it falls back."""
    monkeypatch.setattr(good_sets, "meas_figure",
                        lambda vecs, layout, which, eps: (None, np.zeros(len(vecs), bool)))
    layout = good_sets.small_attack_layout()
    n = 2 * layout.dim
    for basis, which in enumerate(("S0", "S1")):
        core = good_sets.meas_core(layout, basis)
        rng = qc.stream(3, "fallback", which)
        out = good_sets.meas_members(layout, which, 0.25, rng.standard_normal((3, n)),
                                     rng.random(3))
        assert np.array_equal(out, np.broadcast_to(core, out.shape)) and out.flags.writeable
        got, want = qc.stream(3, "fallback", which), qc.stream(3, "fallback", which)
        assert np.array_equal(ref.meas_member(layout, which, 0.25, got), core)
        want.standard_normal(n)
        want.random()
        assert got.random() == want.random()


@pytest.mark.parametrize("which", ["S0", "S1"])
@pytest.mark.parametrize("eps", [0.0, 0.25, 0.41])
def test_per_trial_members_match_reference(which, eps):
    """route_members and meas_members on a trial's row of draws return what
    the per-trial samplers return from that trial's stream, which they leave
    after the row."""
    layout = good_sets.small_attack_layout()
    sizes = {"route": good_sets.route_draws(layout, which, eps)[-1],
             "meas": 2 * layout.dim * (eps > 0)}
    members = {"route": (good_sets.route_members, ref.route_member),
               "meas": (good_sets.meas_members, ref.meas_member)}
    for kind, (batched, reference) in members.items():
        [(_, [(z, u)])] = suites._draw_blocks(9, "member", 4, (sizes[kind],), eps > 0)
        out = batched(layout, which, eps, z, u)
        out = out[0] if kind == "route" else out
        for t in range(4):
            got, want = qc.stream(9, "member", t), qc.stream(9, "member", t)
            assert np.array_equal(out[t], reference(layout, which, eps, got))
            want.standard_normal(sizes[kind])
            if eps > 0:
                want.random()
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
    projection: the row keeps its vector with sin(a) = 0, and the other rows
    move by their own uniforms as they would alone."""
    rng = qc.stream(1, "parallel")
    vecs = qc.unit_finish(rng.standard_normal((3, 16)))
    noise = rng.standard_normal((3, 16))
    noise[1] = 3.0 * np.concatenate([vecs[1].real, vecs[1].imag])
    u = rng.random(3)
    out, sin_a = good_sets.perturb_within(vecs, 0.2, noise, u)
    assert sin_a[1] == 0.0
    assert np.array_equal(out[1], vecs[1] / qc.vector_norm(vecs[1]))
    for i in (0, 2):
        alone, alone_sin = good_sets.perturb_within(vecs[i:i + 1], 0.2, noise[i:i + 1],
                                                    u[i:i + 1])
        assert sin_a[i] == alone_sin[0] == 0.2 * u[i]
        assert np.array_equal(out[i], alone[0])


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
