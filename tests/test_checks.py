import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qpv import checks as ck
from qpv import qcore as qc


def density(vec):
    """|v><v|, the density matrix the dense reference ops take."""
    vec = np.asarray(vec, dtype=complex)
    return np.outer(vec, vec.conj())


def test_report_serialization():
    rep = ck.BoundReport(name="demo", lhs=0.4, rhs=0.5, relation="<=",
                         passed=True, trials=10, tolerance=1e-9,
                         worst_case={"trial": 3})
    doc = json.loads(rep.json_line())
    assert doc["name"] == "demo"
    assert doc["pass"] is True
    assert doc["margin"] == pytest.approx(0.1)
    assert set(doc) >= {"name", "lhs", "rhs", "relation", "margin", "pass", "trials"}


def test_holds_relations():
    assert ck.holds(1.0, ">=", 1.0, 0.0)
    assert ck.holds(0.999, ">=", 1.0, 1e-2)
    assert not ck.holds(0.9, ">=", 1.0, 1e-3)
    assert ck.holds(0.5, "<", 0.5, 1e-9)
    with pytest.raises(ValueError):
        ck.holds(0.0, "!!", 1.0, 0.0)


def test_cit_equality_cases():
    # |0>_R |00>: computational side information is exact, Hadamard side blind
    layout = qc.RegisterLayout([("R", 1), ("E", 1), ("F", 1)])
    psi = density(np.eye(layout.dim)[0])
    rho = qc.dephase_register(psi, layout, "R", 0)
    sigma = qc.dephase_register(psi, layout, "R", 1)
    h0 = qc.conditional_entropy(rho, layout, "R", ("E",))
    h1 = qc.conditional_entropy(sigma, layout, "R", ("F",))
    assert h0 == pytest.approx(0.0, abs=1e-12)
    assert h1 == pytest.approx(1.0, abs=1e-12)

    # |Omega>_RE x |0>_F: perfect side information in one basis
    omega_re = density(qc.assemble_raw(
        layout, [(("R", "E"), qc.BELL_VECTOR), (("F",), np.array([1.0, 0.0]))]))
    rho = qc.dephase_register(omega_re, layout, "R", 0)
    sigma = qc.dephase_register(omega_re, layout, "R", 1)
    assert qc.conditional_entropy(rho, layout, "R", ("E",)) == pytest.approx(0.0, abs=1e-12)
    assert qc.conditional_entropy(sigma, layout, "R", ("F",)) == pytest.approx(1.0, abs=1e-12)


def test_afw_constant_values():
    assert ck.afw_bound(0.0) == 0.0
    assert ck.afw_bound(0.013) == pytest.approx(0.12633, abs=1e-4)
    assert ck.afw_bound(0.013) <= 0.127


def test_fano_classical_channel_equality():
    layout = qc.RegisterLayout([("R", 1), ("W", 1)])
    e = 0.09
    rho = np.diag([(1 - e) / 2, e / 2, e / 2, (1 - e) / 2]).astype(complex)
    assert qc.conditional_entropy(rho, layout, "R", ("W",)) == pytest.approx(
        qc.binary_entropy(e), abs=1e-12)


def test_fano_premise_check_survives_optimize_flag():
    # python -O strips assert statements; the premise check must still fire
    script = ("import numpy as np, qpv.checks.suites as s\n"
              "s.helstrom_guess_pure = lambda vecs, *a: np.zeros(len(vecs))\n"
              "s.check_fano_chain(trials=2)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode != 0
    assert "sampler violated its own premise" in proc.stderr


def test_meas_disjoint_premises_contradict_for_equal_states():
    # one state cannot satisfy both conjugate-basis readability premises:
    # the uncertainty sum forces the other basis entropy up to 1 - delta
    from qpv.attacks.good_sets import meas_members, small_attack_layout
    lay = small_attack_layout()
    delta = qc.binary_entropy(0.09)
    rng = qc.stream(3, "contradict")
    phi = density(meas_members(lay, "S0", 0.2, rng.standard_normal((1, 2 * lay.dim)),
                               rng.random(1))[0])
    alice = ("A", "At", "Bc")
    bob = ("B", "Bt", "Ac")
    h_comp = qc.conditional_entropy(qc.dephase_register(phi, lay, "R", 0), lay, "R", alice)
    h_had_other = qc.conditional_entropy(qc.dephase_register(phi, lay, "R", 1), lay, "R", bob)
    assert h_comp <= delta
    assert h_had_other >= 1 - delta - 1e-9
    assert h_had_other > delta  # so the second premise cannot also hold


def test_uhlmann_closed_form_is_the_best_product_state():
    """The uhlmann suite's p_opt = sqrt(1 - ||v||^2): no sampled product
    |Omega>_RA x |phi> is closer to psi, and the bell_core candidate with
    phi = v / ||v|| attains it."""
    from qpv.attacks.good_sets import small_attack_layout
    from qpv.attacks.strategy import bell_core, rest_registers
    from qpv.checks.suites import _bell_partial_inner
    layout = small_attack_layout()
    rest = layout.subdim(*rest_registers(layout, "R", "A"))
    rng = qc.stream(5, "uhlmann-products")
    for _ in range(4):
        vec = qc.random_unit_vector(layout.dim, rng)
        v = _bell_partial_inner(vec, layout)
        p_opt = np.sqrt(1.0 - np.vdot(v, v).real)
        products = bell_core(layout, "A", qc.unit_finish(rng.standard_normal((300, 2 * rest))))
        dists = np.sqrt(np.maximum(0.0, 1.0 - np.abs(products.conj() @ vec) ** 2))
        assert dists.min() >= p_opt - 1e-12
        best = qc.purified_distance_pure(vec, bell_core(layout, "A", v / np.linalg.norm(v)))
        assert best == pytest.approx(p_opt, abs=1e-12)


@pytest.mark.parametrize("name", sorted(ck.CHECKS))
def test_all_suites_pass_with_default_seed(name):
    report = ck.CHECKS[name](seed=0)
    assert report.passed, report.as_dict()
    line = json.loads(report.json_line())
    assert line["pass"] is True


# Seed-0 figures recorded from the per-trial dense implementation: the worst
# witness's figure (to 1e-12), its trial index and the verdict.  lhs is the
# report's lhs, except for afw (whose lhs is the constant; the pinned figure is
# the worst gap) and meas_disjoint (whose rhs is the worst distance).
SEED0_WITNESSES = {
    "cit": ("lhs", 1.0088276894941948, 353),
    "recovery_overlap": ("lhs", 0.21312854702141842, 837),
    "low_fidelity_route": ("lhs", 0.982006294132603, 14),
    "afw": ("gap", 0.018034315228473874, 782),
    "fano_chain": ("lhs", 0.4358397408858967, 532),
    "meas_disjoint": ("rhs", 0.9283756539261084, 85),
    "m1_m2": ("lhs", 0.03716085966637925, 569),
    "bound_by_iid": ("lhs", -6.324550790626818e-08, None),
    "uhlmann": ("lhs", 1.1102230246251565e-16, 0),
}


@pytest.mark.parametrize("name", sorted(SEED0_WITNESSES))
def test_seed0_witnesses_pinned(name):
    field, value, trial = SEED0_WITNESSES[name]
    doc = ck.CHECKS[name](seed=0).as_dict()
    figure = doc["worst_case"][field] if field == "gap" else doc[field]
    assert figure == pytest.approx(value, abs=1e-12)
    assert doc["worst_case"].get("trial") == trial
    assert doc["pass"] is True


def helstrom_dense(vec, layout, basis, regs):
    """(1 + ||C0 - C1||_1)/2 with C_z = tr_R[(P_z x I) rho_{R, regs}], from the
    dense partial trace of |vec><vec| (R is the lowest qubit of the layout)."""
    rho = qc.partial_trace(density(vec), layout, ("R",) + tuple(regs))
    d = len(rho) // 2
    t = rho.reshape(d, 2, d, 2)   # (regs, R) x (regs, R)
    c0, c1 = (np.einsum("isjr,rs->ij", t, p) for p in qc.basis_projectors(basis))
    return (1 + np.sum(np.abs(np.linalg.eigvalsh(c0 - c1)))) / 2


def test_helstrom_pure_batch_matches_density_path():
    from qpv.attacks.good_sets import helstrom_guess_pure, small_attack_layout
    lay = small_attack_layout()
    vecs = np.stack([qc.random_unit_vector(lay.dim, qc.stream(11, i)) for i in range(3)])
    for basis, regs in ((0, ("A", "At", "Bc")), (1, ("Ac", "B"))):
        batch = helstrom_guess_pure(vecs, lay, basis, regs)
        for vec, value in zip(vecs, batch):
            assert value == pytest.approx(helstrom_dense(vec, lay, basis, regs), abs=1e-12)


def test_run_checks_subset_and_unknown():
    reports = ck.run_checks(["m1_m2", "afw"], seed=1)
    assert [r.name for r in reports] == ["m1_m2", "afw"]
    with pytest.raises(KeyError):
        ck.run_checks(["nope"])


def test_checks_deterministic_under_seed():
    a = ck.check_m1_m2(trials=200, seed=5).json_line()
    b = ck.check_m1_m2(trials=200, seed=5).json_line()
    assert a == b
