"""Numerical verification suites emitting BoundReports."""

from .. import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "report": ("BoundReport", "holds"),
    "suites": ("CHECKS", "afw_bound", "check_afw", "check_bound_by_iid", "check_cit",
               "check_fano_chain", "check_recovery_overlap", "check_low_fidelity_route",
               "check_m1_m2", "check_meas_disjoint", "check_uhlmann", "run_checks"),
})
