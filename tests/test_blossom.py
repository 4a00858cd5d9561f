"""The int-indexed blossom against networkx, and the runtime without networkx.

:func:`repro.decoders.blossom.max_weight_matching` must return exactly the
pairs ``nx.max_weight_matching(G, maxcardinality=True)`` returns — the same
optimum among ties, each pair in the same orientation — on any graph whose
nodes were inserted as ``0..n-1``.  Weights come from small sets so that
ties are common.  The decoder-shaped graphs are built the way the
historical MWPM decoder built them (``nx.from_edgelist`` over tuple-labelled
defects and boundary copies, zero-weight boundary–boundary edges), which
pins the node numbering ``MWPMDecoder._match_defects`` relies on.

The last tests pin what owning the matcher buys: ``repro`` runs with
networkx unimportable, and a blossom decode leaves no cyclic garbage.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import hypothesis.strategies as st
import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.api import codes
from repro.circuits import build_memory_experiment
from repro.decoders.blossom import max_weight_matching
from repro.decoders.matching import _ENUM_MAX_DEFECTS, MWPMDecoder
from repro.noise import brisbane_noise
from repro.scheduling import google_surface_schedule
from repro.sim import build_detector_error_model

SRC = Path(__file__).resolve().parents[1] / "src"

#: Weight sets: small integers (networkx's exact integer path) and floats.
WEIGHT_SETS = ([0, 1, 2, 3], [-2, -1, 0, 4], [0.0, 0.5, 1.0, 2.25], [-1.5, -0.5, 0.0, 0.75, 3.0])


def _networkx_pairs(num_nodes, edges):
    graph = nx.Graph()
    graph.add_nodes_from(range(num_nodes))
    graph.add_weighted_edges_from(edges)
    return nx.max_weight_matching(graph, maxcardinality=True)


@st.composite
def graphs(draw):
    """2–30 nodes and up to 3n edges, repeated pairs and self-loops included.

    ``nx.Graph`` keeps a repeated pair's first position and last weight, and
    blossom ignores self-loops; the port must do the same.
    """
    num_nodes = draw(st.integers(2, 30))
    node = st.integers(0, num_nodes - 1)
    weight = st.sampled_from(draw(st.sampled_from(WEIGHT_SETS)))
    size = draw(st.integers(0, 3 * num_nodes))
    edges = draw(st.lists(st.tuples(node, node, weight), min_size=size, max_size=size))
    return num_nodes, edges


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graphs())
def test_random_graphs_match_networkx(graph):
    num_nodes, edges = graph
    ours = max_weight_matching(num_nodes, edges)
    assert len(ours) == len(set(ours))
    assert set(ours) == _networkx_pairs(num_nodes, edges)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 15).flatmap(
        lambda count: st.tuples(
            st.just(count),
            st.lists(
                st.sampled_from([0.0, 1.0, 2.0, 2.5, 3.0]),
                min_size=count * (count + 1) // 2,
                max_size=count * (count + 1) // 2,
            ),
        )
    )
)
def test_decoder_shaped_graphs_match_networkx(case):
    """Defects, one boundary copy each, and free boundary–boundary edges."""
    count, distances = case
    distances = iter(distances)
    labelled = []
    for i in range(count):
        for j in range(i + 1, count):
            labelled.append((("d", i), ("d", j), -next(distances)))
        labelled.append((("d", i), ("b", i), -next(distances)))
    for i in range(count):
        for j in range(i + 1, count):
            labelled.append((("b", i), ("b", j), 0.0))
    expected = nx.max_weight_matching(
        nx.from_edgelist((u, v, {"weight": w}) for u, v, w in labelled), maxcardinality=True
    )

    def node(label):
        return label[1] + (count if label[0] == "b" else 0)

    edges = [(node(u), node(v), w) for u, v, w in labelled]
    expected = {(node(u), node(v)) for u, v in expected}
    assert set(max_weight_matching(2 * count, edges)) == expected


def test_empty_and_edgeless_graphs():
    assert max_weight_matching(0, []) == []
    assert max_weight_matching(3, []) == []


@pytest.fixture(scope="module")
def surface_r3():
    """Surface d=3, three noisy rounds: a DEM whose 10-defect sets reach blossom."""
    code = codes.build("surface:d=3")
    experiment = build_memory_experiment(
        code, google_surface_schedule(code), brisbane_noise(), basis="Z", noisy_rounds=3
    )
    return build_detector_error_model(experiment.circuit)


def _defect_block(num_detectors, rows, defects, seed):
    rng = np.random.default_rng(seed)
    block = np.zeros((rows, num_detectors), dtype=np.uint8)
    for row in block:
        row[rng.choice(num_detectors, size=defects, replace=False)] = 1
    return block


def test_blossom_decode_leaves_no_cyclic_garbage(surface_r3):
    decoder = MWPMDecoder(surface_r3)
    defects = _ENUM_MAX_DEFECTS + 2
    decoder.decode_batch(_defect_block(surface_r3.num_detectors, 4, defects, seed=0))
    block = _defect_block(surface_r3.num_detectors, 32, defects, seed=1)
    gc.collect()
    gc.disable()
    try:
        decoder.decode_batch(block)
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


GUARD = """
    import sys
    sys.modules["networkx"] = None  # any import of networkx now fails

    import numpy as np

    import repro.decoders.matching as matching
    from repro.api import Budget, Pipeline, RunSpec, codes, decoders
    from repro.scheduling.partition import partition_stabilizers

    calls = []
    blossom = matching.max_weight_matching
    matching.max_weight_matching = lambda *args: calls.append(1) or blossom(*args)

    spec = RunSpec(
        code="surface:d=3",
        decoder="mwpm",
        scheduler="alphasyndrome",
        budget=Budget(iterations_per_step=1, max_evaluations=2, synthesis_shots=20),
        seed=3,
    )
    print("synthesis", Pipeline(spec, shots=40).rates.overall)

    dem = Pipeline(RunSpec(code="surface:d=3", scheduler="google", rounds=3)).dem["Z"]
    rng = np.random.default_rng(0)
    block = np.zeros((8, dem.num_detectors), dtype=np.uint8)
    for row in block:
        row[rng.choice(dem.num_detectors, size=10, replace=False)] = 1
    decoders.build("mwpm")(dem).decode_batch(block)
    assert calls, "the 10-defect block never reached blossom"

    for name in ("five_qubit", "xzzx_d3"):
        print(name, partition_stabilizers(codes.build(name)))

    loaded = [name for name, module in sys.modules.items()
              if name.split(".")[0] == "networkx" and module is not None]
    assert not loaded, loaded
    print("ok")
"""


def test_runtime_never_imports_networkx():
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(GUARD)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.splitlines()[-1] == "ok"
