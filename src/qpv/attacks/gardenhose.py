"""Garden-hose protocols and their compilation to routing attacks.

A garden-hose protocol on s pipes gives Alice, per input x, a partial
matching on {source} + pipe openings, and Bob, per input y, a partial
matching on his pipe ends.  Water entering at the source traces a path
through the matchings and exits on one side; the protocol computes f when
the exit side equals f(x, y) for every pair.

Compilation replaces each pipe with a pre-shared EPR pair and each matched
pair of openings with a Bell measurement, deferred as a unitary: the
rotated carrier qubits keep the outcome bits, copies of which travel in the
communication registers so the exit side can undo the accumulated Pauli
corrections and swap the recovered qubit into its return register.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import qcore as qc
from .strategy import ALICE_LOCAL, BOB_LOCAL, FINAL_REGS, FINALE, AttackStrategy, returned_register

SOURCE = "S"
CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


@dataclass(frozen=True)
class GardenHoseProtocol:
    pipes: int
    alice: dict   # x -> tuple of matched pairs over {SOURCE, 1..pipes}
    bob: dict     # y -> tuple of matched pairs over {1..pipes}

    def __post_init__(self):
        for name, matchings, extra in (("alice", self.alice, {SOURCE}),
                                       ("bob", self.bob, set())):
            allowed = extra | set(range(1, self.pipes + 1))
            for key, pairs in matchings.items():
                used = []
                for pair in pairs:
                    if len(pair) != 2 or pair[0] == pair[1]:
                        raise ValueError(f"{name}[{key}]: invalid pair {pair}")
                    for node in pair:
                        if node not in allowed:
                            raise ValueError(f"{name}[{key}]: unknown node {node!r}")
                        used.append(node)
                if len(used) != len(set(used)):
                    raise ValueError(f"{name}[{key}]: node used more than once")


def trace_water(gh: GardenHoseProtocol, x: int, y: int):
    """Follow the water; returns (exit_side, hops, exit_node).

    ``exit_side`` is 0 (Alice) or 1 (Bob); each hop is ``(side, pair)``
    where ``pair`` is the matched pair the water crossed, in stored
    orientation; ``exit_node`` is the node at which the water leaves the
    path (the source when it has no hops).
    """
    side = 0
    node = SOURCE
    hops = []
    for _ in range(2 * gh.pipes + 2):
        matching = gh.alice.get(x, ()) if side == 0 else gh.bob.get(y, ())
        hit = None
        for pair in matching:
            if node in pair:
                hit = pair
                break
        if hit is None:
            return side, hops, node
        hops.append((side, hit))
        node = hit[1] if hit[0] == node else hit[0]
        side = 1 - side
    raise RuntimeError("water path did not terminate")  # pragma: no cover


def gardenhose_exit(gh: GardenHoseProtocol, x: int, y: int) -> int:
    return trace_water(gh, x, y)[0]


def computes(gh: GardenHoseProtocol, f) -> bool:
    return all(gardenhose_exit(gh, x, y) == f.value(x, y) for x, y in f.pairs())


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

def _measurement_counts(matchings: dict) -> int:
    return max((len(pairs) for pairs in matchings.values()), default=0)


def _layout_for(gh: GardenHoseProtocol) -> qc.RegisterLayout:
    s = gh.pipes
    m_a = _measurement_counts(gh.alice)
    m_b = _measurement_counts(gh.bob)
    pad_a = max(0, 2 * (m_b - m_a))
    pad_b = max(0, 2 * (m_a - m_b))
    return qc.RegisterLayout([
        ("R", 1), ("A", 1), ("At", s + pad_a), ("Ac", 2 * m_a),
        ("B", 1), ("Bt", s + pad_b), ("Bc", 2 * m_b),
    ])


def _initial_vector(layout: qc.RegisterLayout, pipes: int) -> np.ndarray:
    vec = np.zeros(layout.dim, dtype=complex)
    vec[0] = 1.0
    # a Bell pair on (R, A), then one on each pipe (At[i], Bt[i])
    pairs = [(*layout.positions("R"), *layout.positions("A")),
             *zip(layout.positions("At")[:pipes], layout.positions("Bt")[:pipes])]
    gates = [gate for u, v in pairs for gate in ((qc.H, [u]), (qc.CNOT, [u, v]))]
    return qc.apply_on_qubits(vec, layout.total_qubits, gates)


def _side(layout, regs):
    """A side's registers ``regs`` (return, pipe ends, communication) as its
    own layout: the width, node -> qubit, and the communication qubits."""
    local = qc.RegisterLayout([(name, layout.width(name)) for name in regs])
    pipes = local.positions(regs[1])

    def qubit(node):
        # the source is Alice's return register A, the first of her registers
        return 0 if node == SOURCE else pipes[node - 1]

    return local.total_qubits, qubit, local.positions(regs[2])


def _pre_exchange_unitary(layout, regs, matching):
    """Bell rotations for every matched pair plus outcome copies into the
    side's communication register."""
    width, qubit, comm = _side(layout, regs)
    gates = []
    for j, (u, v) in enumerate(matching):
        qu, qv = qubit(u), qubit(v)
        gates += [(qc.CNOT, [qu, qv]), (qc.H, [qu]),
                  (qc.CNOT, [qu, comm[2 * j]]), (qc.CNOT, [qv, comm[2 * j + 1]])]
    return qc.compose_on_qubits(width, gates)


def _recovery_unitary(layout, peer_matching, hops, exit_side, exit_node):
    """Correction + swap unitary for the exiting side's finale registers,
    which hold the peer's outcome copies in their communication register."""
    width, qubit, comm = _side(layout, FINAL_REGS[exit_side])
    exit_q = qubit(exit_node)   # where the data sits at the end of the path
    gates = []
    for side, pair in reversed(hops):
        if side == exit_side:
            z_carrier, x_carrier = qubit(pair[0]), qubit(pair[1])
        else:
            j = peer_matching.index(pair)
            z_carrier, x_carrier = comm[2 * j], comm[2 * j + 1]
        gates += [(qc.CNOT, [x_carrier, exit_q]), (CZ, [z_carrier, exit_q])]
    if exit_q != 0:   # the return register, A or B, is the first
        gates.append((qc.SWAP2, [exit_q, 0]))
    return qc.compose_on_qubits(width, gates)


def compile_gardenhose(gh: GardenHoseProtocol, n: int) -> AttackStrategy:
    """Compile pipe matchings into a routing strategy with pre-shared EPR
    pairs for n-bit inputs; per input pair the strategy recovers the qubit
    exactly on the water's exit side.  An input with no key has the empty
    matching."""
    layout = _layout_for(gh)
    psi = _initial_vector(layout, gh.pipes)
    alice = {x: _pre_exchange_unitary(layout, ALICE_LOCAL, pairs)
             for x, pairs in gh.alice.items() if pairs}
    bob = {y: _pre_exchange_unitary(layout, BOB_LOCAL, pairs)
           for y, pairs in gh.bob.items() if pairs}
    recoveries, site = {name: {} for name in FINALE["route"]}, {}
    for x in range(1 << n):
        for y in range(1 << n):
            exit_side, hops, exit_node = trace_water(gh, x, y)
            site[(x, y)] = returned_register(exit_side)
            peer = gh.alice.get(x, ()) if exit_side else gh.bob.get(y, ())
            recov = _recovery_unitary(layout, peer, hops, exit_side, exit_node)
            # Alice's identity recoveries are left out; Bob's are all kept
            if exit_side or not np.allclose(recov, np.eye(len(recov))):
                recoveries[FINALE["route"][exit_side]][(x, y)] = recov
    return AttackStrategy(kind="route", n=n, layout=layout, psi=psi, alice=alice, bob=bob,
                          qubit_site=site, **recoveries)


# ---------------------------------------------------------------------------
# measurement-sampled execution (reference for the deferred compilation)
# ---------------------------------------------------------------------------

def sampled_route_success(gh: GardenHoseProtocol, f, x: int, y: int) -> float:
    """Per-pair success with the Bell measurements actually sampled.

    Enumerates every joint measurement branch exactly, applies the classical
    Pauli corrections per branch, and averages the Bell-test pass
    probability.  Must agree with the deferred (unitary) compilation.
    """
    if gardenhose_exit(gh, x, y) != f.value(x, y):
        return 0.0
    layout = _layout_for(gh)
    n = layout.total_qubits
    vec = _initial_vector(layout, gh.pipes)

    def global_node(side, node):
        if side == 0:
            if node == SOURCE:
                return layout.positions("A")[0]
            return layout.positions("At")[node - 1]
        return layout.positions("Bt")[node - 1]

    measurements = []   # (z_qubit, x_qubit) per matched pair, both sides
    for side, matching in ((0, gh.alice.get(x, ())), (1, gh.bob.get(y, ()))):
        for u, v in matching:
            qu, qv = global_node(side, u), global_node(side, v)
            vec = qc.apply_on_qubits(vec, n, [(qc.CNOT, [qu, qv]), (qc.H, [qu])])
            measurements.append((qu, qv))

    exit_side, hops, exit_node = trace_water(gh, x, y)
    exit_q = global_node(exit_side, exit_node)
    r_q = layout.positions("R")[0]

    proj = qc.basis_projectors(0)
    hop_qubits = [(global_node(s, p[0]), global_node(s, p[1])) for s, p in hops]

    total = 0.0
    m = len(measurements)
    for branch in range(1 << (2 * m)):
        bits = {}
        w = vec
        for i, (zq, xq) in enumerate(measurements):
            bz = (branch >> (2 * i)) & 1
            bx = (branch >> (2 * i + 1)) & 1
            bits[zq], bits[xq] = bz, bx
            w = qc.apply_on_qubits(w, n, [(proj[bz], [zq]), (proj[bx], [xq])])
        p_branch = float(np.vdot(w, w).real)
        if p_branch < 1e-15:
            continue
        for zq, xq in reversed(hop_qubits):
            if bits[xq]:
                w = qc.apply_on_qubits(w, n, [(qc.X, [exit_q])])
            if bits[zq]:
                w = qc.apply_on_qubits(w, n, [(qc.Z, [exit_q])])
        m = qc.layout.rows_first(w, n, sorted([r_q, exit_q]))[0]
        total += qc.expectation(qc.BELL_VECTOR, m @ m.conj().T)
    return total

