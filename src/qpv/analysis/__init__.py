"""Boolean-function tooling, counting bounds, and brute-force communication
complexity."""

from .boolfun import (
    BooleanFunction,
    constant_function,
    function_from_spec,
    ip_function,
    load_function,
    random_function,
    xor_function,
)
from .commcplx import (
    BudgetExceeded,
    oneway_cc_bruteforce,
    smp_cc,
    smp_cc_bruteforce,
)
from .counting import (
    CountingReport,
    NET_DIMENSION_NOTE,
    NetSizeReport,
    attacker_qubit_bound,
    counting_bound,
    delta_margin_check,
    delta_margin_value,
    hamming_volume,
    net_size_report,
    volume_entropy_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
