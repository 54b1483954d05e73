"""Bounded-entanglement attacks: the two-phase strategy formalism, exact
executors, garden-hose compilation, and numerical strategy search."""

from .. import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "execute": ("epsilon_l_report", "execute_meas", "execute_route", "execute_route_reduced",
                "keep_q_attack"),
    "gardenhose": ("GardenHoseProtocol", "compile_gardenhose", "computes", "gardenhose_exit",
                   "sampled_route_success", "trace_water"),
    "good_sets": ("meas_members", "route_members", "small_attack_layout"),
    "seesaw": ("SeesawOutcome", "default_split", "helstrom_effect", "measure_broadcast_value",
               "polar_unitary", "seesaw_optimize"),
    "strategy": ("ALICE_FINAL", "ALICE_LOCAL", "BOB_FINAL", "BOB_LOCAL", "REGISTER_ORDER",
                 "AttackReport", "AttackStrategy", "attack_layout", "strategy_from_json",
                 "strategy_to_json"),
})
