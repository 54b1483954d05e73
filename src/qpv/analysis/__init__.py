"""Boolean-function tooling, counting bounds, and brute-force communication
complexity."""

from .. import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "boolfun": ("BooleanFunction", "BudgetExceeded", "constant_function", "function_from_spec",
                "ip_function", "load_function", "random_function", "xor_function"),
    "commcplx": ("oneway_cc_bruteforce", "smp_cc", "smp_cc_bruteforce"),
    "counting": ("CountingReport", "NET_DIMENSION_NOTE", "NetSizeReport",
                 "attacker_qubit_bound", "counting_bound", "delta_margin_check",
                 "delta_margin_value", "hamming_volume", "net_size_report",
                 "volume_entropy_check"),
})
