"""Byte-exact outputs of the file writers.

Every file pinned here has contents that do not depend on solver floats
(whose last bits can differ across BLAS builds): topology geometry, seeded
simulation counts, a solve in which every node has fewer neighbors than K
(so p_tx = p_f = 1.0 and p_lo = 0.0 exactly), and library CSV writers fed
fixed values. The `reproduce` model files and roll-up tables hold solver
floats, so only its simulation files are pinned. The commands run inside
tmp_path with relative paths, so the embedded manifests do not depend on
where the test runs.
"""
import hashlib
import math
from importlib import resources

from tricklefair import Topology, compare, export_surface, generate_grid, save_topology
from tricklefair.cli import main
from tricklefair.metrics import save_comparison_csv

GOLDEN_SHA256 = {
    "grid.json": "4ccf258f54b8d22681166ede9a58bb0d0334c2b16feecf5546b8f3282ba8fe4c",
    "sim.json": "ef429feb9d07b85e048741dfea4173d059fa50d9dd4523feeb2c66270f1fc157",
    "sim.csv": "d0c72b4322b9e186847fd81773a266ed861d401896040d1ba5f2bc34e091f5c2",
    "sol.json": "ce15b01e878c68727eed68036ce9eedc7b00490280f0287a080ca0f7273a53c8",
    "sol.csv": "683b1f2f20ac1f9b6af21496fef974e2c06fa0c36a495b147c54b499487d302e",
    "cmp.csv": "563420df1a1fc5183e8cf17dd3a089d8ca2cfa52938863dbdc7a153a61c7f4e4",
    "surface.csv": "c80ca8e493866e6c7f7ca7024ba8ff953ad056e8e66f75d5b29978b8e1d842be",
    "cmp_lib.csv": "262128f0b6bccb9c12d75f792a8b7ef83bc5baea09059dde5183a0ea4afd7f11",
    "t3/sim_offset2_step3.json": "49da50f04b221f9a521443decf08bc244bd8e205d250a09852d245eb12000bfb",
    "t3/sim_offset2_step3.csv": "818b5a608e9a76a613c19761fad879241ddbae4313053b713f64f1931c9c61de",
    "t3/sim_offset0_step3.json": "4d79fdbe63eda72ac282deecac9899a4fe2a5a389cc2f015fca3ec64ee7febbc",
    "t3/sim_offset0_step3.csv": "c731b1b01b4156fe814e006ea774417fbf67e3278a82402b1cb7815d93dfd827",
    "t1/sim_k1.json": "274762dea7afa6f8b7c8efc636d72cd955b803139c35ee23dcfa4eb3500a5eb9",
    "t1/sim_k1.csv": "dad68d11fe9dda213c8f395e558786f60401b8b660c0b06e425bf6238b2ad1bf",
    "t1/sim_k2.json": "2b00bcc7fe95b8d298be83f025b4c6101aa8ce7247453e6381cb8e4dd7106db0",
    "t1/sim_k2.csv": "6a689ea8aa5cb0d780626c9503099699731caeae3f045a9b53c7687d6f94f73e",
    "t1/sim_k3.json": "8b65119b24a1264c2ef42a9fd3ff807b46bfe3198b8d21a61535ef7bc63c061f",
    "t1/sim_k3.csv": "d1b5961a442db342985557e23cff1421293f2044244a8b1d0395c4a93deddc89",
    "t1/sim_k4.json": "4e2522e36b88351a2f8e101189897578953e087332fa5e1573778beb7c78bfa6",
    "t1/sim_k4.csv": "b03c2d07cc0f67ea9a9e38a3f31f6f3e765dd4bee781705474fdc809862cd537",
    "t1/sim_k5.json": "6604e8c896e31d5fe606363023a633dd21253883f07fd7f24493c33821483808",
    "t1/sim_k5.csv": "9943a19f6b9727991d29adcd1d26a207344f6f598b772152c9c93ea3ef4387d4",
    "t1/sim_k6.json": "119902ab997645104fb41e0b7e94cf849b2fb5dd76db2cb4f2d006e839a98c9c",
    "t1/sim_k6.csv": "63685087eaebc4cb2715e84f8e946cf5c65e31cde52fc70a2576ef15194bcb8c",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_written_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "grid", "--rows", "3", "--cols", "4", "-o", "grid.json"]) == 0
    assert main(
        ["simulate", "--topo", "grid.json", "--fixed-k", "2", "--runs", "3", "--intervals", "4",
         "--seed", "5", "-o", "sim.json", "--csv", "sim.csv"]
    ) == 0
    # the 3x4 grid's maximum degree is 8, so K = 9 forces every p_tx to 1.0
    assert main(["solve", "--topo", "grid.json", "--fixed-k", "9", "-o", "sol.json", "--csv", "sol.csv"]) == 0
    assert main(["compare", "--model", "sol.json", "--sim", "sim.json", "-o", "cmp.csv"]) == 0

    grid = generate_grid(3, 4, 0.5, 1.0)
    export_surface(grid, [i / 11 for i in range(grid.n)], "surface.csv")
    p_model = [1 / 3, 0.1, 1.0, 0.0, math.pi / 4]
    p_sim = [0.25, 0.2, 0.95, 1e-7, 2 / 3]
    save_comparison_csv("cmp_lib.csv", [1, 2, 3, 4, 5], [1, 1, 2, 2, 3], compare(p_model, p_sim))

    assert main(["reproduce", "--table", "1", "--out", "t1", "--runs", "2", "--intervals", "2"]) == 0
    assert main(["reproduce", "--table", "3", "--out", "t3", "--runs", "2", "--intervals", "2"]) == 0

    got = {name: _sha256(tmp_path / name) for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256


# Written by save_topology for a topology built from edges: no positions and no
# range, so "edges" holds nested integer lists and every x and y is null.
EDGE_LIST_SHA256 = "83175c03ad50bf97c9866ca81ea8e849ae9d2f1439a86a07b30c6a84ca76b1d3"


def test_edge_list_topology_bytes_are_pinned(tmp_path):
    topo = Topology.from_edges(7, [(0, 1), (2, 1), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3), (1, 0)])
    save_topology(topo, tmp_path / "edges.json")
    assert _sha256(tmp_path / "edges.json") == EDGE_LIST_SHA256


def test_bundled_random_topology_is_its_generator_output(tmp_path, monkeypatch):
    # gate 7 and table 2 read this file; it is the output of one seeded gen random
    monkeypatch.chdir(tmp_path)
    argv = ["gen", "random", "--n", "49", "--side", "7", "--range", "1.22", "--seed", "85", "-o", "random49.json"]
    assert main(argv) == 0
    bundled = resources.files("tricklefair").joinpath("data/random49.json").read_bytes()
    assert (tmp_path / "random49.json").read_bytes() == bundled
