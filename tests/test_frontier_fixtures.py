"""The frontier hosts kept as edge-list files under ``tests/fixtures``.

Each is an edge-minimal sampled host: G(n, 0.9) drawn until the degree
condition held, then edges deleted in a shuffled order while it still held
(the ROADMAP recipe, with the seeds of the `split_seed` that XORed the
master seed into the first path element).  The collision-free `split_seed`
draws other hosts, so these are kept as files.  The checks here are cheap:
none of them runs a packing search.
"""

import itertools
import pathlib
from fractions import Fraction

import pytest

from tilinglab import degseq
from tilinglab.graphs import Graph, degree_sequence, load_graph

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# file, condition, r, edges; the K2,2 hosts have no perfect K2,2 packing,
# the K2,2,2 and K3 hosts have one that takes a long search to find
FRONTIER = [
    ("frontier_k22_n24_margin_s7.txt", "margin", 2, 110),
    ("frontier_k22_n24_margin_s13.txt", "margin", 2, 107),
    ("frontier_k222_n36_exact_s12.txt", "exact", 3, 399),
    ("frontier_k3_n48_exact_s11.txt", "exact", 3, 709),
]


def _meets(g: Graph, thresholds: list[int]) -> bool:
    return degseq.first_violation(degree_sequence(g), thresholds) is None


@pytest.mark.parametrize("name, condition, r, edges", FRONTIER)
def test_frontier_host_is_edge_minimal_under_its_condition(name, condition, r, edges):
    g = load_graph(str(FIXTURES / name))
    assert isinstance(g, Graph) and g.edge_count() == edges
    thresholds = degseq.DegreeCondition(condition, r, Fraction(0)).thresholds(g.n)
    assert _meets(g, thresholds)
    pairs = g.pairs()
    for e in pairs:
        assert not _meets(Graph(g.n, [f for f in pairs if f != e]), thresholds), e


@pytest.mark.parametrize("name", [row[0] for row in FRONTIER if "k22_" in row[0]])
def test_k22_frontier_host_has_a_vertex_in_no_c4(name):
    # a vertex in no C4 is in no copy of K2,2, so the host has no perfect
    # K2,2 packing; the C4s through it are enumerated by brute force
    g = load_graph(str(FIXTURES / name))
    (v,) = [u for u in range(g.n) if g.degree(u) == 1]
    others = [u for u in range(g.n) if u != v]
    for a, b, c in itertools.permutations(others, 3):
        assert not (g.has_edge(v, a) and g.has_edge(a, b) and g.has_edge(b, c)
                    and g.has_edge(c, v)), (v, a, b, c)
