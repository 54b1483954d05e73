"""Every benchmark op's output at workload seed 0, pinned by SHA-256.

Each workload is generated with ``perfbench/workloads.build(name, 0, tmp)``
and its ops run in process through ``qpv.cli.main``.  The digest covers all
of an op's output files, with the package version stripped from the
primary JSON document as in ``test_cli.PINNED_OUTPUTS``.  The eight
garden-hose ops share one config, so only the first is pinned.
"""

import hashlib
import importlib
import json
from pathlib import Path

import pytest

from qpv import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PINNED_OPS = {
    ("simulate", "honest_bernoulli"):
        "f2c9ee1d1f0e1cc365559a46a9cc16d943b3eab7a05e85afbd8dbb658461674c",
    ("simulate", "honest_depolarizing"):
        "07b27f422e6877553649044b8a813167977c25a4aafb33432b9d07a8240a4a9b",
    ("simulate", "keepq_route_entangled"):
        "f7cc7c9da3556365ae044ba831f7931f5e4a2de3a05d509b53379d6ad3f56438",
    ("simulate", "keepq_route_bb84"):
        "d92a756085ed2966f96e589be670a7eece7e8a409c7039a12466f8c06a6a50bd",
    ("attack", "seesaw_meas_and"):
        "c37d287f8ad592d5743dc9d08bcc70644bd1b751745056dc2a624d0690fbb02d",
    ("attack", "seesaw_route_q3"):
        "6584ca483bc137e7aa2416a7b4e85477202b3c55b65c37af54ce6c1af128dc9e",
    ("attack", "seesaw_route_n2"):
        "95cd8f96f4dc9790fe8a6ad7a247ec95391216f71a72aa3c6463c57f606a8fce",
    ("attack", "gardenhose_0"):
        "99241a43f6f83238e979604c539dcae85ad73daf462f3622266c96c004a443eb",
    ("verify", "verify_all"):
        "cb2b8b47a067565075237479e6f45219ff52873dc907119b07decb66b67a401f",
    ("bounds", "oneway_n4_k1_r0"):
        "41f6ec96f4415e9c6529523aef793c9c72d7952998ae1678a17a09d187d6ce32",
    ("bounds", "oneway_n4_k1_r1"):
        "9d1979ff2afa7936fd1de0c678908aa36f37909b2bc5062ef07e3225202bc631",
    ("bounds", "oneway_n4_k1_r2"):
        "04e625046d7686543698e66ece71948cfc5cddd38216a1d540fed31330d4139f",
    ("bounds", "oneway_n4_k1_r3"):
        "8a627e2be91e24147ead78eaafd313f63f5e4ddf697627cd92b57419f802f201",
    ("bounds", "smp_n3_k1_r0"):
        "71f33c13f337fd124fc65722cea4c839e97b130d36d51dbca4d21f2c845eb3a1",
    ("bounds", "smp_n3_k1_r0_transpose"):
        "b3a9a2c0bc7358f2b8bb4a899690440522968d453c55e1e7f2bde28c1e7d0052",
    ("bounds", "oneway_n3_k1_r0"):
        "06c41533e0a3999c8c7857e70eae12e7f24c68cef0f83950669c4a94e60e6bd7",
    ("bounds", "oneway_n3_k2_r0"):
        "31c553a11dfcbf1b041c26fffac365d05c6e6933b07847bad4787f3af7cb57fe",
    ("bounds", "smp_n3_k1_r1"):
        "905ef2dcc07f5ef258a5117d62059297a1c8605febe41eb1ba8dc0a2f31e45a2",
    ("bounds", "smp_n3_k1_r1_transpose"):
        "d75583f428c69f8c080861aee7854ce68c494e369d62660acf548ed65deaaca0",
    ("bounds", "oneway_n3_k1_r1"):
        "bace876f9c7db30c12169dbc8c52c2967560cf2089c05f1f8ae53b0b97523ee4",
    ("bounds", "oneway_n3_k2_r1"):
        "3b7131f24fe56188e539521694bc3612b687d97dc43a7488db0f4c462c8ca59c",
    ("bounds", "smp_ip3_k1"):
        "6ad44317e88b14dc0374814a289913722d47459cf0930ba4f2d194ce5955f58e",
    ("bounds", "oneway_ip3_k1"):
        "a31853542dde46bd90b4bc38cca2f4e65a61bc231acef1ee9fabec53669c886c",
    ("bounds", "oneway_ip4_k1"):
        "0ce3fd5f07c038d4b9e358f1e3d5d494367031a359a3dd73d585e3a42c6ee926",
    ("bounds", "counting_n10_q0"):
        "1953b5fa335be4a4a748ae8373f692cc64df3aaeb24b8c65ca731de7b615c609",
    ("bounds", "net_size_q2"):
        "bb084bf7973d559592e5df933e7190cf264722ff8418436145a21704f433e496",
    ("bounds", "delta_margin"):
        "84b1a4a6299d9e621b142b7232893ce3cb382f313b81b75537cbe5afeb821df7",
    ("bounds", "volume_n100"):
        "278fb54cdd4b2fc9c16aabd8dda04c20191d57569d04f5a3ead01afa1f3072bc",
    ("bounds", "qubit_bound_n20"):
        "34ec909a011a1cf5bce0ddcb26f1452bdc1ec3536e538e519df6e6b8e03eb685",
}


def _payload(op) -> bytes:
    paths = [Path(p) for p in op.outputs]
    if op.argv[0] == "verify":
        return paths[0].read_bytes()
    doc = json.loads(paths[0].read_bytes())
    del doc["provenance"]["version"]
    return (json.dumps(doc, sort_keys=True).encode()
            + b"".join(p.read_bytes() for p in paths[1:]))


@pytest.mark.parametrize("workload,op_name", sorted(PINNED_OPS))
def test_perfbench_op_pinned(tmp_path, capsys, monkeypatch, workload, op_name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    ops = {op.name: op for op in workloads.build(workload, 0, tmp_path).ops}
    op = ops[op_name]
    assert cli.main(op.argv) == cli.EXIT_OK
    capsys.readouterr()
    assert hashlib.sha256(_payload(op)).hexdigest() == PINNED_OPS[workload, op_name]
