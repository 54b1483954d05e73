"""Bounded-entanglement attacks: the two-phase strategy formalism, exact
executors, garden-hose compilation, and numerical strategy search."""

from .execute import (
    epsilon_l_report,
    execute_meas,
    execute_route,
    execute_route_reduced,
    keep_q_attack,
)
from .gardenhose import (
    GardenHoseProtocol,
    compile_gardenhose,
    computes,
    gardenhose_exit,
    sampled_route_success,
    trace_water,
)
from .good_sets import (
    meas_members,
    route_members,
    small_attack_layout,
)
from .seesaw import (
    SeesawOutcome,
    angle_grid_value,
    default_split,
    helstrom_effect,
    polar_unitary,
    seesaw_optimize,
)
from .strategy import (
    ALICE_FINAL,
    ALICE_LOCAL,
    BOB_FINAL,
    BOB_LOCAL,
    REGISTER_ORDER,
    AttackReport,
    AttackStrategy,
    attack_layout,
    strategy_from_json,
    strategy_to_json,
    unentangled_product_state,
)

__all__ = [name for name in dir() if not name.startswith("_")]
