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


def attack_layout(a: int = 1, at: int = 0, ac: int = 0,
                  b: int | None = None, bt: int | None = None,
                  bc: int | None = None) -> qc.RegisterLayout:
    """Standard layout R A At Ac B Bt Bc; Bob mirrors Alice by default."""
    b = a if b is None else b
    bt = at if bt is None else bt
    bc = ac if bc is None else bc
    return qc.RegisterLayout([("R", 1), ("A", a), ("At", at), ("Ac", ac),
                              ("B", b), ("Bt", bt), ("Bc", bc)])


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


def unentangled_product_state(layout: qc.RegisterLayout) -> np.ndarray:
    """|Omega>_RA on the stored-qubit slot, |0...0> everywhere else."""
    if layout.width("A") != 1:
        raise ValueError("needs a 1-qubit A register")
    return bell_core(layout)


@dataclass
class AttackStrategy:
    """A q-qubit two-attacker strategy.

    ``psi`` is the pre-shared state on ``layout``: a unit vector or a density
    matrix, stored as a read-only copy.

    ``alice``/``bob`` map the classical inputs x/y to unitaries on the local
    register triples; the finale is either recovery unitaries ``k_final`` /
    ``l_final`` (routing) or measurement effects ``pi_effect`` /
    ``sigma_effect`` (measuring), indexed by the pair (x, y).  Missing
    entries default to the identity (routing) and are an error for the
    measuring finale.  ``qubit_site`` optionally records, per pair, which
    side physically holds the routed qubit; attacks that send nothing to the
    responsible verifier score zero there.
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
        if self.kind not in ("route", "meas"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.layout.names != REGISTER_ORDER:
            raise ValueError(f"layout registers must be {REGISTER_ORDER}")
        if self.layout.width("R") != 1:
            raise ValueError("the reference register R is one qubit")
        if self.layout.width("A") != self.layout.width("B"):
            raise ValueError("registers A and B must have equal width")
        if self.alice_qubits != self.bob_qubits:
            raise ValueError("Alice and Bob must hold equally many qubits")
        psi = np.array(self.psi, dtype=complex)
        qc.check_state(psi, self.layout.dim, "psi")
        psi.flags.writeable = False
        self.psi = psi
        families = [("alice", self.alice, ALICE_LOCAL, qc.check_unitary),
                    ("bob", self.bob, BOB_LOCAL, qc.check_unitary)]
        if self.kind == "route":
            if self.pi_effect or self.sigma_effect:
                raise ValueError("routing strategies carry no measurement finale")
            families += [("k_final", self.k_final, ALICE_FINAL, qc.check_unitary),
                         ("l_final", self.l_final, BOB_FINAL, qc.check_unitary)]
        else:
            if self.k_final or self.l_final:
                raise ValueError("measuring strategies carry no recovery unitaries")
            if self.pi_effect is None or self.sigma_effect is None:
                raise ValueError("measuring strategies need pi/sigma effects")
            families += [("pi_effect", self.pi_effect, ALICE_FINAL, qc.check_effect),
                         ("sigma_effect", self.sigma_effect, BOB_FINAL, qc.check_effect)]
        for name, family, regs, check in families:
            dim = self.layout.subdim(*regs)
            for key, mat in family.items():
                mat = np.asarray(mat, dtype=complex)
                if mat.shape != (dim, dim):
                    raise ValueError(f"{name}[{key}] must be {dim}x{dim}")
                check(mat, f"{name}[{key}]")

    @property
    def alice_qubits(self) -> int:
        return sum(self.layout.width(r) for r in ALICE_LOCAL)

    @property
    def bob_qubits(self) -> int:
        return sum(self.layout.width(r) for r in BOB_LOCAL)

    @property
    def q(self) -> int:
        return self.alice_qubits

    def _family(self, table: dict, key, dim: int) -> np.ndarray:
        mat = table.get(key)
        if mat is None:
            return np.eye(dim, dtype=complex)
        return np.asarray(mat, dtype=complex)

    def alice_unitary(self, x: int) -> np.ndarray:
        return self._family(self.alice, x, self.layout.subdim(*ALICE_LOCAL))

    def bob_unitary(self, y: int) -> np.ndarray:
        return self._family(self.bob, y, self.layout.subdim(*BOB_LOCAL))

    def recovery_k(self, x: int, y: int) -> np.ndarray:
        return self._family(self.k_final, (x, y), self.layout.subdim(*ALICE_FINAL))

    def recovery_l(self, x: int, y: int) -> np.ndarray:
        return self._family(self.l_final, (x, y), self.layout.subdim(*BOB_FINAL))

    def measurement_effects(self, x: int, y: int) -> tuple:
        if self.pi_effect is None or self.sigma_effect is None:
            raise ValueError("not a measuring strategy")
        try:
            return (np.asarray(self.pi_effect[(x, y)], dtype=complex),
                    np.asarray(self.sigma_effect[(x, y)], dtype=complex))
        except KeyError as exc:
            raise KeyError(f"no measurement for input pair {(x, y)}") from exc

    def holds_qubit(self, x: int, y: int, side: str) -> bool:
        if self.qubit_site is None:
            return True
        return self.qubit_site.get((x, y), side) == side


@dataclass(frozen=True)
class AttackReport:
    """Per-pair success probabilities of a strategy against one function."""

    n: int
    per_pair: dict
    average: float

    def epsilon_l(self, eps: float) -> int:
        """Number of pairs caught with probability at most eps^2."""
        return sum(1 for s in self.per_pair.values() if 1.0 - s <= eps * eps + 1e-12)

    def as_dict(self, eps: float | None = None) -> dict:
        out = {
            "n": self.n,
            "average_success": self.average,
            "per_pair": {f"{x},{y}": s for (x, y), s in sorted(self.per_pair.items())},
        }
        if eps is not None:
            out["epsilon"] = eps
            out["l"] = self.epsilon_l(eps)
        return out


# ---------------------------------------------------------------------------
# serialization: JSON with base-16 encoded complex entries ("re,im" pairs)
# ---------------------------------------------------------------------------

def _encode_matrix(mat: np.ndarray) -> list:
    mat = np.asarray(mat, dtype=complex)
    return [[f"{v.real.hex()},{v.imag.hex()}" for v in row] for row in mat]


def _decode_matrix(rows: list) -> np.ndarray:
    out = np.empty((len(rows), len(rows[0])), dtype=complex)
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            re, im = cell.split(",")
            out[i, j] = complex(float.fromhex(re), float.fromhex(im))
    return out


def _encode_family(family: dict | None, pair_keys: bool) -> dict | None:
    if family is None:
        return None
    if pair_keys:
        return {f"{x},{y}": _encode_matrix(m) for (x, y), m in sorted(family.items())}
    return {str(x): _encode_matrix(m) for x, m in sorted(family.items())}


def _decode_family(data: dict | None, pair_keys: bool) -> dict | None:
    if data is None:
        return None
    out = {}
    for key, rows in data.items():
        mat = _decode_matrix(rows)
        if pair_keys:
            x, y = key.split(",")
            out[(int(x), int(y))] = mat
        else:
            out[int(key)] = mat
    return out


def strategy_to_json(strategy: AttackStrategy) -> str:
    psi = strategy.psi
    doc = {
        "kind": strategy.kind,
        "n": strategy.n,
        "layout": [[name, w] for name, w in strategy.layout.registers],
        "psi": {"kind": "pure" if psi.ndim == 1 else "mixed",
                "data": _encode_matrix(np.atleast_2d(psi))},
        "alice": _encode_family(strategy.alice, False),
        "bob": _encode_family(strategy.bob, False),
        "k_final": _encode_family(strategy.k_final, True),
        "l_final": _encode_family(strategy.l_final, True),
        "pi_effect": _encode_family(strategy.pi_effect, True),
        "sigma_effect": _encode_family(strategy.sigma_effect, True),
        "qubit_site": (None if strategy.qubit_site is None else
                       {f"{x},{y}": side for (x, y), side in sorted(strategy.qubit_site.items())}),
    }
    return json.dumps(doc, sort_keys=True)


def strategy_from_json(text: str) -> AttackStrategy:
    doc = json.loads(text)
    layout = qc.RegisterLayout([(name, w) for name, w in doc["layout"]])
    psi = _decode_matrix(doc["psi"]["data"])
    if doc["psi"]["kind"] == "pure":
        psi = psi.reshape(-1)
    qubit_site = doc.get("qubit_site")
    if qubit_site is not None:
        qubit_site = {tuple(int(v) for v in key.split(",")): side
                      for key, side in qubit_site.items()}
    return AttackStrategy(
        kind=doc["kind"], n=doc["n"], layout=layout, psi=psi,
        alice=_decode_family(doc["alice"], False) or {},
        bob=_decode_family(doc["bob"], False) or {},
        k_final=_decode_family(doc["k_final"], True) or {},
        l_final=_decode_family(doc["l_final"], True) or {},
        pi_effect=_decode_family(doc["pi_effect"], True),
        sigma_effect=_decode_family(doc["sigma_effect"], True),
        qubit_site=qubit_site,
    )
