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
from .strategy import ALICE_FINAL, ALICE_LOCAL, BOB_FINAL, BOB_LOCAL, AttackStrategy

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

    def n_bits(self) -> int:
        keys = set(self.alice) | set(self.bob)
        side = max(keys) + 1 if keys else 1
        n = max(1, (side - 1).bit_length())
        return n


def trace_water(gh: GardenHoseProtocol, x: int, y: int):
    """Follow the water; returns (exit_side, hops).

    ``exit_side`` is 0 (Alice) or 1 (Bob); each hop is ``(side, pair)``
    where ``pair`` is the matched pair the water crossed, in stored
    orientation.
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
            return side, hops
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
    n = layout.total_qubits
    vec = np.zeros(layout.dim, dtype=complex)
    vec[0] = 1.0
    r, = layout.positions("R")
    a, = layout.positions("A")
    vec = qc.apply_on_qubits(vec, n, qc.H, [r])
    vec = qc.apply_on_qubits(vec, n, qc.CNOT, [r, a])
    at = layout.positions("At")
    bt = layout.positions("Bt")
    for i in range(pipes):
        vec = qc.apply_on_qubits(vec, n, qc.H, [at[i]])
        vec = qc.apply_on_qubits(vec, n, qc.CNOT, [at[i], bt[i]])
    return vec


def _local_index(layout, regs, register, offset=0):
    """Index of a register qubit inside the little-endian ordering of regs."""
    at = 0
    for name in regs:
        if name == register:
            return at + offset
        at += layout.width(name)
    raise KeyError(register)


def _pre_exchange_unitary(layout, regs, matching, pipe_reg, source_local):
    """Bell rotations for every matched pair plus outcome copies into the
    side's communication register (the last register in ``regs``)."""
    def node_local(node):
        if node == SOURCE:
            return source_local
        return _local_index(layout, regs, pipe_reg, node - 1)

    width = sum(layout.width(r) for r in regs)
    comm_base = _local_index(layout, regs, regs[2], 0)
    gates = []
    for j, (u, v) in enumerate(matching):
        qu, qv = node_local(u), node_local(v)
        gates.append((qc.CNOT, [qu, qv]))
        gates.append((qc.H, [qu]))
        gates.append((qc.CNOT, [qu, comm_base + 2 * j]))
        gates.append((qc.CNOT, [qv, comm_base + 2 * j + 1]))
    return qc.compose_on_qubits(width, gates)


def _recovery_unitary(layout, gh, x, y, hops, exit_side):
    """Correction + swap unitary for the exiting side's finale registers."""
    if exit_side == 0:
        regs, own_pipe, own_matching, peer_matching = ALICE_FINAL, "At", gh.alice.get(x, ()), gh.bob.get(y, ())
        return_local = _local_index(layout, regs, "A", 0)
    else:
        regs, own_pipe, own_matching, peer_matching = BOB_FINAL, "Bt", gh.bob.get(y, ()), gh.alice.get(x, ())
        return_local = _local_index(layout, regs, "B", 0)
    comm_base = _local_index(layout, regs, regs[2], 0)
    width = sum(layout.width(r) for r in regs)

    def own_local(node):
        if node == SOURCE:
            return return_local  # Alice's source slot is her return register
        return _local_index(layout, regs, own_pipe, node - 1)

    # where the data sits at the end of the path
    exit_local = own_local(_exit_node(hops))

    gates = []
    for side, pair in reversed(hops):
        if side == exit_side:
            z_carrier = own_local(pair[0])
            x_carrier = own_local(pair[1])
        else:
            j = list(peer_matching).index(pair)
            z_carrier = comm_base + 2 * j
            x_carrier = comm_base + 2 * j + 1
        gates.append((qc.CNOT, [x_carrier, exit_local]))
        gates.append((CZ, [z_carrier, exit_local]))
    if exit_local != return_local:
        gates.append((qc.SWAP2, [exit_local, return_local]))
    return qc.compose_on_qubits(width, gates)


def compile_gardenhose(gh: GardenHoseProtocol) -> AttackStrategy:
    """Compile pipe matchings into a routing strategy with pre-shared EPR
    pairs; per input pair the strategy recovers the qubit exactly on the
    water's exit side."""
    n = gh.n_bits()
    layout = _layout_for(gh)
    psi = _initial_vector(layout, gh.pipes)
    alice = {x: _pre_exchange_unitary(layout, ALICE_LOCAL, pairs, "At",
                                      _local_index(layout, ALICE_LOCAL, "A", 0))
             for x, pairs in gh.alice.items() if pairs}
    bob = {y: _pre_exchange_unitary(layout, BOB_LOCAL, pairs, "Bt",
                                    _local_index(layout, BOB_LOCAL, "B", 0))
           for y, pairs in gh.bob.items() if pairs}
    # the source node on Bob's pre-exchange side never occurs (matchings on
    # pipes only), so the placeholder source_local is unused there
    k_final, l_final, site = {}, {}, {}
    side_count = 1 << n
    for x in range(side_count):
        for y in range(side_count):
            exit_side, hops = trace_water(gh, x, y)
            site[(x, y)] = "A" if exit_side == 0 else "B"
            recov = _recovery_unitary(layout, gh, x, y, hops, exit_side)
            if exit_side == 0:
                if not np.allclose(recov, np.eye(recov.shape[0])):
                    k_final[(x, y)] = recov
            else:
                l_final[(x, y)] = recov
    return AttackStrategy(kind="route", n=n, layout=layout, psi=psi,
                          alice=alice, bob=bob, k_final=k_final,
                          l_final=l_final, qubit_site=site)


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
            vec = qc.apply_on_qubits(vec, n, qc.CNOT, [qu, qv])
            vec = qc.apply_on_qubits(vec, n, qc.H, [qu])
            measurements.append((qu, qv))

    exit_side, hops = trace_water(gh, x, y)
    exit_q = global_node(exit_side, _exit_node(hops))
    r_q = layout.positions("R")[0]

    proj = {0: np.array([[1, 0], [0, 0]], dtype=complex),
            1: np.array([[0, 0], [0, 1]], dtype=complex)}
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
            w = qc.apply_on_qubits(w, n, proj[bz], [zq])
            w = qc.apply_on_qubits(w, n, proj[bx], [xq])
        p_branch = float(np.vdot(w, w).real)
        if p_branch < 1e-15:
            continue
        for zq, xq in reversed(hop_qubits):
            if bits[xq]:
                w = qc.apply_on_qubits(w, n, qc.X, [exit_q])
            if bits[zq]:
                w = qc.apply_on_qubits(w, n, qc.Z, [exit_q])
        m = qc.layout.rows_first(w, n, sorted([r_q, exit_q]))[0]
        total += qc.expectation(qc.BELL_VECTOR, m @ m.conj().T)
    return total


def _exit_node(hops):
    """Node at which the data leaves the path (the source when it has no hops)."""
    node = SOURCE
    for _, pair in hops:
        node = pair[1] if pair[0] == node else pair[0]
    return node
