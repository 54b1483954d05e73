"""The two-phase attacker formalism: pre-shared state, input-indexed local
unitaries, one simultaneous exchange of the communication registers, and a
final recovery unitary (routing) or two-outcome measurement (measuring) per
input pair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .. import qcore as qc

REGISTER_ORDER = ("R", "A", "At", "Ac", "B", "Bt", "Bc")

ALICE_LOCAL = ("A", "At", "Ac")     # before the exchange
BOB_LOCAL = ("B", "Bt", "Bc")
ALICE_FINAL = ("A", "At", "Bc")     # after swapping Ac <-> Bc
BOB_FINAL = ("B", "Bt", "Ac")
LOCAL_REGS = (ALICE_LOCAL, BOB_LOCAL)   # indexed by side: 0 Alice, 1 Bob
FINAL_REGS = (ALICE_FINAL, BOB_FINAL)


def returned_register(value: int) -> str:
    """Register whose qubit the verifier named by f(x, y) = value receives."""
    return "A" if value == 0 else "B"


def attack_layout(a: int = 1, at: int = 0, ac: int = 0) -> qc.RegisterLayout:
    """Standard layout R A At Ac B Bt Bc, Bob's registers the widths of Alice's."""
    return qc.RegisterLayout(list(zip(REGISTER_ORDER, (1, a, at, ac, a, at, ac))))


def rest_registers(layout: qc.RegisterLayout, *exclude: str) -> tuple[str, ...]:
    """The non-empty registers of ``layout`` outside ``exclude``, in layout order."""
    return tuple(name for name in layout.names if name not in exclude and layout.width(name))


def bell_core(layout: qc.RegisterLayout, ret: str = "A", phi=None) -> np.ndarray:
    """|Omega>_{R,ret} x |phi> on the other non-empty registers (|0...0> when
    ``phi`` is None); ``phi`` may carry a leading batch axis."""
    rest = rest_registers(layout, "R", ret)
    if phi is None:
        phi = np.eye(layout.subdim(*rest))[0]
    return qc.assemble_raw(layout, [(("R", ret), qc.BELL_VECTOR), (rest, phi)])


def bell_contract(layout: qc.RegisterLayout, vecs: np.ndarray) -> np.ndarray:
    """(<Omega|_RA x I)|v> per row of ``vecs``, little-endian over
    ``rest_registers(layout, "R", "A")``: the adjoint of ``bell_core``."""
    n, ra = layout.total_qubits, layout.positions("R", "A")
    # one row over every qubit, R then A lowest: index r + 2a + 4 * rest
    rows = qc.layout.rows_first(vecs, n, ra + [q for q in range(n) if q not in ra])
    out = rows.reshape(len(rows), -1, 4) @ qc.BELL_VECTOR.conj()
    return out[0] if np.ndim(vecs) == 1 else out


# the strategy format.  FAMILIES: each matrix family -> (keyed by the input
# pair, else by one input; the registers it acts on; its validator).
# FINALE: each kind -> (Alice's finale family, Bob's).
FAMILIES = {"alice": (False, ALICE_LOCAL, qc.check_unitary),
            "bob": (False, BOB_LOCAL, qc.check_unitary),
            "k_final": (True, ALICE_FINAL, qc.check_unitary),
            "l_final": (True, BOB_FINAL, qc.check_unitary),
            "pi_effect": (True, ALICE_FINAL, qc.check_effect),
            "sigma_effect": (True, BOB_FINAL, qc.check_effect)}
FINALE = {"route": ("k_final", "l_final"), "meas": ("pi_effect", "sigma_effect")}


@dataclass
class AttackStrategy:
    """A two-attacker strategy in the format of FAMILIES and FINALE:
    ``alice``/``bob`` map the inputs x/y to local unitaries, and its kind's
    finale maps each pair (x, y) to recovery unitaries (routing) or effects
    (measuring); a missing unitary is the identity.

    ``psi``, the state the attack starts from, is a unit vector
    |Omega>_RA x |phi> on ``layout``: the verifier keeps R, Q arrives in A,
    and the attackers pre-share phi.  It is stored as a read-only copy.  A
    routing strategy's ``qubit_site`` optionally records, per pair, which
    side physically holds the routed qubit; attacks that send nothing to
    the responsible verifier score zero there.
    """

    kind: str
    n: int
    layout: qc.RegisterLayout
    psi: np.ndarray
    alice: dict = field(default_factory=dict)
    bob: dict = field(default_factory=dict)
    k_final: dict = field(default_factory=dict)
    l_final: dict = field(default_factory=dict)
    pi_effect: dict | None = None
    sigma_effect: dict | None = None
    qubit_site: dict | None = None

    def __post_init__(self):
        if self.kind not in FINALE:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.n < 1:
            raise ValueError(f"strategy.n: expected an integer >= 1, got {self.n!r}")
        if self.layout.names != REGISTER_ORDER:
            raise ValueError(f"layout registers must be {REGISTER_ORDER}")
        if [self.layout.width(name) for name in ("R", "A", "B")] != [1, 1, 1]:
            raise ValueError("registers R, A and B are one qubit each")
        if self.layout.subdim(*ALICE_LOCAL) != self.layout.subdim(*BOB_LOCAL):
            raise ValueError("Alice and Bob must hold equally many qubits")
        psi = np.array(self.psi, dtype=complex)
        qc.check_state(psi, self.layout.dim, "psi")
        core = np.linalg.norm(bell_contract(self.layout, psi)) ** 2
        if abs(core - 1.0) > qc.ops.STATE_TOL:
            raise ValueError(f"psi is not |Omega>_RA x phi: <Omega|rho_RA|Omega> = {core}")
        psi.flags.writeable = False
        self.psi = psi
        if self.kind == "route" and (self.pi_effect or self.sigma_effect):
            raise ValueError("routing strategies carry no measurement finale")
        if self.kind == "meas":
            if self.k_final or self.l_final:
                raise ValueError("measuring strategies carry no recovery unitaries")
            if self.pi_effect is None or self.sigma_effect is None:
                raise ValueError("measuring strategies need pi/sigma effects")
            if self.qubit_site is not None:
                raise ValueError("measuring strategies route no qubit to a site")
        inputs = range(1 << self.n)
        for name, (pair_keyed, regs, check) in FAMILIES.items():
            dim = self.layout.subdim(*regs)
            for key, mat in (getattr(self, name) or {}).items():
                parts = key if pair_keyed else (key,)
                if not (type(parts) is tuple and len(parts) == 1 + pair_keyed
                        and all(part in inputs for part in parts)):
                    raise ValueError(f"{name}[{key!r}]: not keyed by inputs of n = {self.n}")
                mat = np.asarray(mat, dtype=complex)
                if mat.shape != (dim, dim):
                    raise ValueError(f"{name}[{key}] must be {dim}x{dim}")
                check(mat, f"{name}[{key}]")
        for key, site in (self.qubit_site or {}).items():
            if not (type(key) is tuple and len(key) == 2 and all(part in inputs for part in key)
                    and site in ("A", "B")):
                raise ValueError(f"qubit_site[{key!r}]: expected 'A' or 'B' at an input "
                                 f"pair of n = {self.n}, got {site!r}")

    def matrix(self, name: str, key) -> np.ndarray:
        """Family ``name``'s matrix at ``key``, an input or an input pair."""
        mat = (getattr(self, name) or {}).get(key)
        if mat is not None:
            return np.asarray(mat, dtype=complex)
        _, regs, check = FAMILIES[name]
        if check is qc.check_effect:
            raise KeyError(f"no measurement for input pair {key}")
        return np.eye(self.layout.subdim(*regs), dtype=complex)

    def holds_qubit(self, x: int, y: int, side: str) -> bool:
        return self.qubit_site is None or self.qubit_site.get((x, y), side) == side


@dataclass(frozen=True)
class AttackReport:
    """Per-pair success probabilities of a strategy against one function."""

    n: int
    per_pair: dict
    average: float

    def epsilon_l(self, eps: float) -> int:
        """Number of pairs caught with probability at most eps^2."""
        return sum(1 for s in self.per_pair.values() if 1.0 - s <= eps * eps + 1e-12)

    def as_dict(self, eps: float) -> dict:
        return {
            "n": self.n,
            "average_success": self.average,
            "per_pair": {f"{x},{y}": s for (x, y), s in sorted(self.per_pair.items())},
            "epsilon": eps,
            "l": self.epsilon_l(eps),
        }


# ---------------------------------------------------------------------------
# serialization: JSON with base-16 encoded complex entries ("re,im" pairs)
# ---------------------------------------------------------------------------

def _encode_matrix(mat: np.ndarray) -> list:
    mat = np.ascontiguousarray(mat, dtype=complex)
    # format each distinct bit pattern once: a 16-byte void view keeps 0.0
    # and -0.0 (and values one ulp apart) apart, where comparing numbers
    # would merge them
    bits, where = np.unique(mat.view(np.dtype((np.void, 16))).ravel(), return_inverse=True)
    cells = np.array([f"{v.real.hex()},{v.imag.hex()}" for v in bits.view(complex).tolist()],
                     dtype=object)
    return cells[where].reshape(mat.shape).tolist()


def _decode_matrix(rows, where: str) -> np.ndarray:
    width = len(rows[0]) if type(rows) is list and rows and type(rows[0]) is list else 0
    if not (width and all(type(row) is list and len(row) == width
                          and all(type(cell) is str for cell in row) for row in rows)):
        raise ValueError(f"{where}: expected a non-empty list of equal-length rows of strings")
    out = np.empty((len(rows), width), dtype=complex)
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            out[i, j] = _decode_cell(cell, f"{where}[{i}][{j}]")
    return out


def _decode_cell(cell: str, where: str) -> complex:
    """A "re,im" pair of hex floats; only the spelling the encoder writes is
    read, so a cell re-encodes to itself."""
    try:
        value = complex(*map(float.fromhex, cell.split(",")))
    except (TypeError, ValueError):
        value = None
    if value is None or f"{value.real.hex()},{value.imag.hex()}" != cell:
        raise ValueError(f"{where}: expected \"re,im\" in float.hex spelling, got {cell!r}")
    return value


def _encode_table(table: dict | None, pair_keys: bool, encode=_encode_matrix) -> dict | None:
    """A matrix family (or the qubit sites) keyed "x,y" by input pair, else "x"."""
    if table is None:
        return None
    return {(f"{key[0]},{key[1]}" if pair_keys else str(key)): encode(value)
            for key, value in sorted(table.items())}


def _decode_key(key: str, pair_keys: bool, where: str):
    """An input key "x" as an int, an input-pair key "x,y" as a pair of them;
    only the spelling the encoder writes is read, so a key re-encodes to itself."""
    try:
        parts = tuple(map(int, key.split(",")))
    except ValueError:
        parts = ()
    if len(parts) != 1 + pair_keys or ",".join(map(str, parts)) != key:
        shape = "two integers x,y" if pair_keys else "an integer"
        raise ValueError(f"{where}[{key!r}]: expected {shape}")
    return parts if pair_keys else parts[0]


def _decode_table(data, pair_keys: bool, where: str, decode=_decode_matrix) -> dict | None:
    if data is None:
        return None
    if type(data) is not dict:
        raise ValueError(f"{where}: expected an object or null, got {data!r}")
    return {_decode_key(key, pair_keys, where): decode(value, f"{where}[{key!r}]")
            for key, value in data.items()}


def strategy_to_json(strategy: AttackStrategy) -> str:
    doc = {
        "kind": strategy.kind,
        "n": strategy.n,
        "layout": [[name, w] for name, w in strategy.layout.registers],
        "psi": {"kind": "pure", "data": _encode_matrix(strategy.psi[None])},
        **{name: _encode_table(getattr(strategy, name), pair_keyed)
           for name, (pair_keyed, *_) in FAMILIES.items()},
        "qubit_site": _encode_table(strategy.qubit_site, True, str),
    }
    return json.dumps(doc, sort_keys=True)


def _check_keys(doc, where: str, required: tuple, admitted: tuple = ()) -> None:
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected an object")
    for fault, keys in (("unknown", set(doc) - {*required, *admitted}),
                        ("missing", set(required) - set(doc))):
        if keys:
            raise ValueError(f"{where}: {fault} keys {sorted(keys)}")


def strategy_from_json(text: str) -> AttackStrategy:
    """The strategy a JSON document describes; an absent family or
    ``qubit_site`` reads as null, and a null unitary family as no entries."""
    doc = json.loads(text)
    _check_keys(doc, "strategy", ("kind", "n", "layout", "psi"), (*FAMILIES, "qubit_site"))
    _check_keys(doc["psi"], "strategy.psi", ("kind", "data"))
    if type(doc["kind"]) is not str:
        raise ValueError(f"strategy.kind: expected a string, got {doc['kind']!r}")
    if type(doc["n"]) is not int:
        raise ValueError(f"strategy.n: expected an integer, got {doc['n']!r}")
    regs = doc["layout"]
    if not (type(regs) is list
            and all(type(reg) is list and list(map(type, reg)) == [str, int] for reg in regs)):
        raise ValueError(f"strategy.layout: expected a list of [name, width] pairs, got {regs!r}")
    layout = qc.RegisterLayout(regs)
    if doc["psi"]["kind"] != "pure":
        raise ValueError(f"strategy.psi.kind: expected 'pure', got {doc['psi']['kind']!r} "
                         "(purify a mixed state on wider registers)")
    psi = _decode_matrix(doc["psi"]["data"], "strategy.psi.data").reshape(-1)
    families = {}
    for name, (pair_keyed, _, check) in FAMILIES.items():
        table = _decode_table(doc.get(name), pair_keyed, f"strategy.{name}")
        families[name] = {} if table is None and check is qc.check_unitary else table
    sites = _decode_table(doc.get("qubit_site"), True, "strategy.qubit_site",
                          lambda site, _: site)
    return AttackStrategy(kind=doc["kind"], n=doc["n"], layout=layout, psi=psi,
                          qubit_site=sites, **families)
