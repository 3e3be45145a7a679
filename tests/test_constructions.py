import itertools
import random

import pytest

from tilinglab.constructions import (
    ExtremalParamError,
    ExtremalParams,
    blowup_tournament_packing,
    certify_uncoverable,
    clique_pattern,
    complete_graph,
    complete_multipartite,
    extremal_instance,
    hs_tight_instance,
    pattern_from_name,
    pattern_power,
    preset_star_sizes,
    transitive_pattern,
    transitive_tournament,
)
from tilinglab.graphs import degree_sequence
from tilinglab.packing import find_perfect_packing, is_perfect_packing

from oracles import has_path_on_4_vertices, reference_extremal_instance


def test_transitive_tournament():
    assert transitive_tournament(1).n == 1
    t3 = transitive_tournament(3)
    assert t3.arcs == frozenset({(0, 1), (0, 2), (1, 2)})
    assert t3.in_degree(0) == 0  # vertex 0 plays the first role
    assert degree_sequence(transitive_tournament(4)) == [2, 2, 3, 3]


def test_complete_multipartite():
    assert complete_multipartite(1, 1, 1) == complete_graph(3)
    assert complete_multipartite(2, 2, 2).edge_count() == 12
    star = complete_multipartite(3, 1)
    assert sorted(star.degree(v) for v in range(4)) == [1, 1, 1, 3]


def test_pattern_power():
    k32 = pattern_power("K", 3, 2)
    target = complete_multipartite(2, 2, 2)
    # same canonical invariants: degree sequence and triangle count
    assert degree_sequence(k32) == degree_sequence(target)

    def triangles(g):
        return sum(
            1
            for a, b, c in itertools.combinations(range(g.n), 3)
            if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
        )

    assert triangles(k32) == triangles(target)

    t22 = pattern_power("T", 2, 2)
    assert t22.n == 4 and t22.edge_count() == 4

    t32 = pattern_power("T", 3, 2)
    base = degree_sequence(transitive_tournament(3))
    assert base == [1, 2, 2]
    blown = degree_sequence(t32)
    # the scaling identity, and the directly computed value it yields
    assert blown == [2 * base[(j - 1) // 2] for j in range(1, 7)]
    assert blown == [2, 2, 4, 4, 4, 4]


def test_pattern_descriptors():
    assert pattern_from_name("K3").clique_order == 3
    assert pattern_from_name("T4").transitive_order == 4
    assert pattern_from_name("K2,2,2").multipartite == (2, 2, 2)
    assert pattern_from_name("K3^2").order == 6
    assert pattern_from_name("T3^2").order == 6
    with pytest.raises(ValueError):
        pattern_from_name("Q7")


def test_extremal_desk_instance_structure():
    inst = extremal_instance(ExtremalParams(3, (2, 2, 2), 36, 1))
    g = inst.graph
    assert [len(c) for c in inst.classes] == [1, 16, 19]
    # v's non-neighbourhood is exactly V_3
    non_nb = set(range(g.n)) - set(g.neighbors(inst.v)) - {inst.v}
    assert non_nb == set(inst.classes[2])
    # the inside of V_2 is a star forest: no path on 4 vertices
    assert not has_path_on_4_vertices(g, list(inst.classes[1]))
    # stars are vertex-disjoint and cover V_2
    star_verts = [v for s in inst.stars for v in s]
    assert sorted(star_verts) == list(inst.classes[1])


def _partitions(total, largest=None):
    """Every non-increasing tuple of positive integers summing to total."""
    largest = total if largest is None else largest
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def test_extremal_desk_degree_clause_unattainable():
    # at n=36, C=1 no spanning star forest in V_2 gives positive slack
    # d_i - ((r-2)n/r + i) at every i <= n/r; the clause needs n >= 132
    n, r = 36, 3
    v2_size = ExtremalParams(r, (2, 2, 2), n, 1).class_sizes()[1]
    star_forests = list(_partitions(v2_size))
    assert len(star_forests) == 231  # the partition number p(16)
    for stars in star_forests:
        inst = extremal_instance(ExtremalParams(r, (2, 2, 2), n, 1, star_sizes=stars))
        seq = degree_sequence(inst.graph)
        assert any(
            seq[i - 1] - ((r - 2) * n // r + i) <= 0 for i in range(1, n // r + 1)
        ), f"star sizes {stars}"


def test_extremal_paper_scale_degree_property():
    # with explicit star sizes the full degree inequality holds at n=144
    params = ExtremalParams(
        3, (2, 2, 2), 144, 1, star_sizes=(6, 6, 6, 6, 6, 6, 5, 4, 3, 2, 2)
    )
    inst = extremal_instance(params)
    seq = degree_sequence(inst.graph)
    n, r, C = 144, 3, 1
    for i in range(1, n // r + 1):
        assert seq[i - 1] >= (r - 2) * n // r + i + C, f"index {i}"
    # distinguished-vertex degree: n - 1 - |V_3| >= (r-2)n/r + 1 + C
    assert inst.graph.degree(0) == n - 1 - len(inst.classes[2])
    assert inst.graph.degree(0) >= (r - 2) * n // r + 1 + C


def test_extremal_r4():
    params = ExtremalParams(4, (2, 2, 2, 2), 32, 1, star_sizes=(4, 4, 5))
    inst = extremal_instance(params)
    sizes = [len(c) for c in inst.classes]
    assert sizes == [1, 13, 11, 7] and sum(sizes) == 32
    res = certify_uncoverable(inst.graph, 0, pattern_from_name("K2,2,2,2"))
    assert res.uncoverable


def test_extremal_invalid_params():
    with pytest.raises(ExtremalParamError, match="2n/r-2-3C"):
        ExtremalParams(3, (2, 2, 2), 36, 9).validate()
    with pytest.raises(ExtremalParamError, match="divide"):
        ExtremalParams(3, (2, 2, 2), 35, 1).validate()
    with pytest.raises(ExtremalParamError, match="star sizes sum"):
        ExtremalParams(3, (2, 2, 2), 36, 1, star_sizes=(6, 6)).validate()
    with pytest.raises(ExtremalParamError):
        ExtremalParams(2, (2, 2), 36, 1).validate()
    with pytest.raises(ExtremalParamError):
        ExtremalParams(3, (2, 2, 1), 36, 1).validate()


@pytest.mark.parametrize("params", [
    ExtremalParams(3, (2, 2, 2), 36, 1),
    ExtremalParams(3, (2, 2, 2), 144, 1, star_sizes=(6, 6, 6, 6, 6, 6, 5, 4, 3, 2, 2)),
    ExtremalParams(3, (2, 2, 2), 144, 1),
    ExtremalParams(4, (2, 2, 2, 2), 64, 1),
    ExtremalParams(5, (2, 2, 2, 2, 2), 100, 2),
    ExtremalParams(3, (2, 2, 2), 225, 1),
])
def test_extremal_rows_match_edge_list_builder(params):
    """The rows built from class masks are those of the edge-by-edge builder,
    with the same classes and stars."""
    inst = extremal_instance(params)
    want = reference_extremal_instance(params)
    assert inst.graph.adj == want.graph.adj
    assert (inst.classes, inst.stars, inst.v) == (want.classes, want.stars, want.v)


def test_preset_star_sizes():
    assert preset_star_sizes(36, 16) == (6, 5, 5)
    assert preset_star_sizes(144, 52) == (9, 9, 9, 9, 8, 8)
    # odd square n: floor(sqrt(n)/2) stars still cover V_2
    inst = extremal_instance(ExtremalParams(3, (2, 2, 2), 81, 1))
    assert tuple(len(s) for s in inst.stars) == (8, 8, 8, 7)
    inst = extremal_instance(ExtremalParams(3, (2, 2, 2), 225, 1))
    assert tuple(len(s) for s in inst.stars) == (12, 12, 11, 11, 11, 11, 11)
    with pytest.raises(ExtremalParamError):
        preset_star_sizes(35, 16)


def test_certify_uncoverable_examples():
    res = certify_uncoverable(complete_graph(6), 0, clique_pattern(3))
    assert not res.uncoverable and 0 in res.refutation

    star = complete_multipartite(3, 1)  # center is vertex 3
    res = certify_uncoverable(star, 3, clique_pattern(3))
    assert res.uncoverable

    inst = extremal_instance(ExtremalParams(3, (2, 2, 2), 36, 1))
    res = certify_uncoverable(inst.graph, inst.v, pattern_from_name("K2,2,2"))
    assert res.uncoverable


def test_certificate_implies_solver_none():
    # mini desk instance: uncoverable vertex forces the solver to NONE
    inst = extremal_instance(ExtremalParams(3, (2, 2, 2), 18, 0, star_sizes=(4, 3)))
    pat = pattern_from_name("K2,2,2")
    assert certify_uncoverable(inst.graph, 0, pat).uncoverable
    assert find_perfect_packing(inst.graph, pat) is None

    star = complete_multipartite(3, 1)
    assert certify_uncoverable(star, 3, clique_pattern(3)).uncoverable
    # order not divisible by 3 anyway, NONE immediate
    assert find_perfect_packing(star, clique_pattern(3)) is None


def test_fact_packing_examples():
    host, p = blowup_tournament_packing(2, 2, "r")
    assert len(p.parts) == 2 and p.coverage() == 4
    host, p = blowup_tournament_packing(2, 2, "r+1")
    assert len(p.parts) == 3 and p.coverage() == 6
    host, p = blowup_tournament_packing(3, 3, "r+1")  # T_4(3) into 4 T_3
    assert len(p.parts) == 4 and p.coverage() == 12
    assert is_perfect_packing(host, p).ok


@pytest.mark.parametrize("r", [2, 3, 4])
def test_fact_packing_fuzzed(r):
    for t in (r, 2 * r):
        for which in ("r", "r+1"):
            host, p = blowup_tournament_packing(r, t, which)
            assert is_perfect_packing(host, p).ok
            assert all(len(part) == r for part in p.parts)


def test_fact_packing_divisibility():
    with pytest.raises(ValueError, match="divide"):
        blowup_tournament_packing(3, 4, "r")


def test_hs_tight():
    g = hs_tight_instance(3, 9)
    n, r = 9, 3
    assert min(g.degree(v) for v in range(n)) == (r - 1) * n // r - 1
    assert find_perfect_packing(g, clique_pattern(3)) is None


def test_sharpness_story_at_feasible_scale():
    # the H-version sharpness instance: both exact clauses hold with slack,
    # yet the distinguished vertex lies in no pattern copy, so (order being
    # divisible by 6) no perfect packing exists
    from tilinglab.degseq import check_exact_sequence

    params = ExtremalParams(
        3, (2, 2, 2), 144, 1, star_sizes=(6, 6, 6, 6, 6, 6, 5, 4, 3, 2, 2)
    )
    inst = extremal_instance(params)
    rep = check_exact_sequence(inst.graph, 3)
    assert rep.satisfied and rep.slack_min >= 1
    assert inst.graph.n % 6 == 0
    res = certify_uncoverable(inst.graph, inst.v, pattern_from_name("K2,2,2"))
    assert res.uncoverable


def test_extremal_r5():
    inst = extremal_instance(
        ExtremalParams(5, (2, 2, 2, 2, 2), 30, 0, star_sizes=(4, 3))
    )
    assert [len(c) for c in inst.classes] == [1, 7, 10, 6, 6]
    res = certify_uncoverable(inst.graph, 0, pattern_from_name("K2,2,2,2,2"))
    assert res.uncoverable
