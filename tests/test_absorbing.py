import itertools
import json
import pathlib
import random
from fractions import Fraction

import pytest

import tilinglab.absorbing as absorbing_module
from tilinglab.absorbing import (
    AbsorbingFamily,
    AbsorbingGadget,
    FamilyConstructionError,
    HPath,
    _almost_pack,
    absorb,
    auxiliary_graph,
    build_absorbing_family,
    clique_path,
    concat_paths,
    find_connecting_path,
    is_absorbing_for,
    is_h_path,
    length1_connectors,
    pipeline,
    q_prime,
    star_blowup,
    truncate_path,
    truncated_star_blowup,
    verify_star_blowup,
)
from tilinglab.constructions import (
    ExtremalParams,
    clique_pattern,
    complete_graph,
    extremal_instance,
    pattern_from_name,
    transitive_pattern,
)
from tilinglab.degseq import check_margin_sequence
from tilinglab.graphs import Digraph, Graph, bits, mask, symmetrize
from tilinglab.packing import (
    Packing,
    find_perfect_packing,
    greedy_parts,
    is_perfect_packing,
    perfect_parts_within,
)

from oracles import (
    reference_absorb,
    reference_absorbing_family,
    reference_almost_pack,
    reference_perfect_on_subset,
    sample_digraph,
    sample_gnp,
    sample_tournament,
)


def test_is_h_path_examples():
    k4 = complete_graph(4)
    p = HPath(clique_pattern(3), ((1, 2),), (0, 3))
    assert is_h_path(k4, p).ok

    dup = HPath(clique_pattern(3), ((1, 2), (1, 5)), (0, 3, 4))
    res = is_h_path(complete_graph(6), dup)
    assert not res.ok and "repeated" in res.reason

    broken = HPath(clique_pattern(3), ((1, 2),), (0, 3))
    host = Graph(4, [(0, 1), (0, 2), (1, 2)])  # 3 misses the second clique
    assert not is_h_path(host, broken).ok


def test_concat_and_chained_tournament_path():
    host = symmetrize(complete_graph(10))
    pat = transitive_pattern(3)
    p1 = HPath(pat, ((1, 2),), (0, 3))
    p2 = HPath(pat, ((4, 5),), (3, 6))
    p3 = HPath(pat, ((7, 8),), (6, 9))
    assert is_h_path(host, p1).ok and is_h_path(host, p2).ok
    chained = concat_paths(concat_paths(p1, p2), p3)
    assert chained.length == 3
    assert chained.endpoints == (0, 9)
    assert is_h_path(host, chained).ok
    # associativity where defined
    other = concat_paths(p1, concat_paths(p2, p3))
    assert other == chained

    with pytest.raises(ValueError, match="endpoint"):
        concat_paths(p1, p3)
    clash = HPath(pat, ((1, 2),), (3, 9))
    with pytest.raises(ValueError, match="share"):
        concat_paths(p1, clash)


def test_concat_fuzz_then_verify():
    rng = random.Random(10)
    host = symmetrize(complete_graph(14))
    pat = transitive_pattern(3)
    for _ in range(25):
        verts = rng.sample(range(14), 8)
        p1 = HPath(pat, ((verts[1], verts[2]),), (verts[0], verts[3]))
        p2 = HPath(pat, ((verts[4], verts[5]),), (verts[3], verts[6]))
        assert is_h_path(host, concat_paths(p1, p2)).ok


def test_truncate():
    host = symmetrize(complete_graph(10))
    pat = transitive_pattern(3)
    p = concat_paths(
        concat_paths(
            HPath(pat, ((1, 2),), (0, 3)), HPath(pat, ((4, 5),), (3, 6))
        ),
        HPath(pat, ((7, 8),), (6, 9)),
    )
    q = truncate_path(p)
    assert q.endpoints == (None, None) and q.connectors[1:-1] == (3, 6)
    assert len(q.vertices()) == 3 * 3 - 1
    assert is_h_path(host, q).ok

    res = is_h_path(host, HPath(pat, q.blocks, q.connectors[:-1]))
    assert not res.ok and "connectors" in res.reason
    res = is_h_path(host, truncate_path(HPath(pat, ((1, 2),), (0, 3))))
    assert not res.ok and "length" in res.reason
    res = is_h_path(host, HPath(pat, q.blocks, (None, None, 6, None)))
    assert not res.ok and "missing" in res.reason
    for half in ((0, 3, 6, None), (None, 3, 6, 9)):
        res = is_h_path(host, HPath(pat, q.blocks, half))
        assert not res.ok and "both endpoints" in res.reason
    with pytest.raises(ValueError, match="endpoint"):
        concat_paths(q, q)


def test_length1_connectors_examples():
    sets = list(length1_connectors(complete_graph(5), clique_pattern(3), 0, 1))
    assert sets == [(2, 3), (2, 4), (3, 4)]

    two_k4 = Graph(
        8,
        [(u, v) for u in range(4) for v in range(u + 1, 4)]
        + [(u, v) for u in range(4, 8) for v in range(u + 1, 8)],
    )
    assert list(length1_connectors(two_k4, clique_pattern(3), 0, 5)) == []

    cap = list(length1_connectors(complete_graph(8), clique_pattern(3), 0, 1, cap=2))
    assert len(cap) == 2


def test_length1_connectors_match_brute_force():
    rng = random.Random(40)
    pat = transitive_pattern(3)
    for _ in range(10):
        d = sample_tournament(rng, 10)
        x, y = rng.sample(range(10), 2)
        got = set(length1_connectors(d, pat, x, y))
        want = set()
        arcs = d.arcs
        for pair in itertools.combinations(set(range(10)) - {x, y}, 2):
            from oracles import brute_spans

            if brute_spans(arcs, pair + (x,), "T3") and brute_spans(arcs, pair + (y,), "T3"):
                want.add(tuple(sorted(pair)))
        assert got == want


def test_auxiliary_graph():
    aux = auxiliary_graph(complete_graph(6), clique_pattern(3), 1)
    assert aux.edge_count() == 15

    sparse = auxiliary_graph(complete_graph(5), clique_pattern(3), beta_count=99)
    assert sparse.edge_count() == 0

    rng = random.Random(3)
    d = sample_tournament(rng, 9)
    pat = transitive_pattern(3)
    for beta in (1, 2):
        aux = auxiliary_graph(d, pat, beta)
        for x in range(9):
            for y in range(x + 1, 9):
                count = len(list(length1_connectors(d, pat, x, y, cap=beta)))
                assert aux.has_edge(x, y) == (count >= beta)


def test_find_connecting_path():
    host = complete_graph(12)
    pat = clique_pattern(3)
    p = find_connecting_path(host, pat, 0, 11, 2)
    assert p is not None and p.length == 2 and p.endpoints == (0, 11)
    assert is_h_path(host, p).ok

    two_comp = Graph(
        10,
        [(u, v) for u in range(5) for v in range(u + 1, 5)]
        + [(u, v) for u in range(5, 10) for v in range(u + 1, 10)],
    )
    assert find_connecting_path(two_comp, pat, 0, 7, 3) is None


def test_connecting_paths_on_margin_hosts():
    rng = random.Random(8)
    found = 0
    for _ in range(6):
        g = sample_gnp(rng, 24, 0.85)
        if not check_margin_sequence(g, 3, Fraction(1, 10)).satisfied:
            continue
        x, y = rng.sample(range(24), 2)
        p = find_connecting_path(g, clique_pattern(3), x, y, 2)
        assert p is not None
        assert is_h_path(g, p).ok
        found += 1
    assert found >= 3


def test_h_path_interior_packs_with_either_endpoint():
    host = complete_graph(12)
    pat = clique_pattern(3)
    p = find_connecting_path(host, pat, 0, 11, 3)
    interior = p.interior()
    x, y = p.endpoints
    assert find_perfect_packing(host.induced(interior + [x])[0], pat) is not None
    assert find_perfect_packing(host.induced(interior + [y])[0], pat) is not None


def test_clique_path_construction():
    g, p = clique_path(3, 4)
    assert g.n == 4 * 3 + 1
    assert is_h_path(g, p).ok


def test_star_blowup_sizes_and_verification():
    _, p = clique_path(3, 3)
    sb = star_blowup(p, 2)
    assert sb.order() == 2 * 3 * 3 + 1 == 19
    assert verify_star_blowup(sb).ok

    tsb = truncated_star_blowup(p, 2)
    assert tsb.order() == 2 * 3 * 3 - 1 == 17
    assert verify_star_blowup(tsb).ok
    qp = q_prime(tsb)
    assert qp.order() == 19
    assert verify_star_blowup(qp).ok


def test_star_blowup_h1_is_identity_scale():
    _, p = clique_path(3, 3)
    sb = star_blowup(p, 1)
    assert sb.order() == 3 * 3 + 1
    assert verify_star_blowup(sb).ok


@pytest.mark.parametrize("r", [3, 4])
@pytest.mark.parametrize("t", [3, 5])
@pytest.mark.parametrize("h", [1, 2])
def test_star_blowup_grid(r, t, h):
    _, p = clique_path(r, t)
    sb = star_blowup(p, h)
    assert sb.order() == h * r * t + 1
    assert verify_star_blowup(sb).ok


def test_star_blowup_corruption_rejected():
    _, p = clique_path(3, 3)
    sb = star_blowup(p, 2)
    # remove a cross edge between the first connector set and first block
    victim = (sb.y_blocks[0][0], sb.x_blocks[0][0])
    victim = (min(victim), max(victim))
    from tilinglab.absorbing import StarBlowup

    bad_graph = Graph(sb.graph.n, [e for e in sb.graph.pairs() if e != victim])
    bad = StarBlowup(
        bad_graph, sb.r, sb.t, sb.h, sb.x_blocks, sb.y_blocks, sb.truncated
    )
    assert not verify_star_blowup(bad).ok


def test_star_blowup_regime_errors():
    _, p = clique_path(3, 2)
    with pytest.raises(ValueError, match="regime"):
        star_blowup(p, 2)
    _, p = clique_path(3, 3)
    with pytest.raises(ValueError):
        star_blowup(p, 0)


def test_is_absorbing_for():
    k6 = complete_graph(6)
    pat = clique_pattern(3)
    assert is_absorbing_for(k6, pat, [], [])
    assert is_absorbing_for(k6, pat, [0, 1, 2], [3, 4, 5])
    assert not is_absorbing_for(k6, pat, [0, 1, 2], [3])
    with pytest.raises(ValueError):
        is_absorbing_for(k6, pat, [0, 1], [1, 2])
    # a vertex outside the host is refused, whatever the size of the set
    for S, Q in (([0, 1, 6], []), ([0, 1, 2], [3, 4, 6]), ([-1, 0, 1], [])):
        with pytest.raises(ValueError, match="out of range"):
            is_absorbing_for(k6, pat, S, Q)


def test_build_family_and_gadgets_verified():
    host = complete_graph(30)
    pat = clique_pattern(3)
    fam = build_absorbing_family(host, pat, t=1, sample_size=80, rng_seed=5)
    assert fam.capacity() % 3 == 0 and fam.capacity() >= 3
    m = fam.M
    assert m.bit_count() == fam.capacity() * 2
    # every gadget absorbs some vertex outside M (re-verified via solver)
    for gadget in fam.gadgets:
        hits = [
            v
            for v in range(30)
            if not m >> v & 1
            and find_perfect_packing(
                host.induced(list(gadget.verts) + [v])[0], pat
            )
            is not None
        ]
        assert hits
    # host[M] packs perfectly, as the build-time check requires
    assert find_perfect_packing(host.induced(bits(m))[0], pat) is not None


@pytest.mark.parametrize("name,t,n,p,samples", [
    ("K3", 1, 18, 0.7, 40), ("K3", 2, 24, 0.85, 40),
    ("T3", 1, 18, 0.75, 40), ("T3", 2, 24, 0.9, 40),
    # six disjoint random gadgets of 5 or 11 vertices need a large host
    ("K2,2,2", 1, 120, 0.9, 80), ("K2,2,2", 2, 200, 0.9, 150),
])
def test_family_matches_per_vertex_reference(name, t, n, p, samples):
    """Gadgets, their pair counts, params and seed are those of the scorer
    that asks the exact check once per candidate and vertex; where the
    builder finds too few gadgets, so does the reference."""
    pattern = pattern_from_name(name)
    rng = random.Random(f"family:{name}:{t}")
    built = 0
    for i in range(2):
        host = sample_digraph(rng, n, p) if pattern.is_digraph else sample_gnp(rng, n, p)
        for seed in (i, 100 + i):
            want = reference_absorbing_family(host, pattern, t, samples, seed, None)
            try:
                fam = build_absorbing_family(host, pattern, t=t, sample_size=samples, rng_seed=seed)
            except FamilyConstructionError as exc:
                assert ("too few" in str(exc)) == (not want.gadgets), exc
                continue
            assert fam == want
            built += 1
    assert built


def test_build_family_reproducible():
    host = complete_graph(24)
    pat = clique_pattern(3)
    a = build_absorbing_family(host, pat, sample_size=60, rng_seed=11)
    b = build_absorbing_family(host, pat, sample_size=60, rng_seed=11)
    assert json.dumps(a.to_json_obj()) == json.dumps(b.to_json_obj())
    c = build_absorbing_family(host, pat, sample_size=60, rng_seed=12)
    assert json.dumps(a.to_json_obj()) != json.dumps(c.to_json_obj())


@pytest.mark.parametrize("kwargs", [
    {"t": 0}, {"sample_size": 0}, {"sample_size": -1}, {"max_gadgets": 0}, {"max_gadgets": -1},
])
def test_build_family_refuses_counts_below_one(kwargs):
    with pytest.raises(ValueError, match=">= 1 required"):
        build_absorbing_family(complete_graph(12), clique_pattern(3), **kwargs)
    with pytest.raises(ValueError, match=">= 1 required"):
        pipeline(complete_graph(12), clique_pattern(3), **kwargs)


def test_build_family_failure_on_edgeless():
    with pytest.raises(FamilyConstructionError, match="gadgets"):
        build_absorbing_family(Graph(12, []), clique_pattern(3), sample_size=40)


def test_absorb_scenarios():
    k9 = complete_graph(9)
    pat = clique_pattern(3)
    fam = build_absorbing_family(k9, pat, sample_size=60, rng_seed=1, max_gadgets=3)
    assert fam.capacity() == 3

    empty = absorb(k9, pat, fam, [])
    assert empty is not None
    assert is_perfect_packing(k9, empty, universe=fam.M).ok

    w = list(bits(k9.full_mask() & ~fam.M))
    assert len(w) == 3
    full = absorb(k9, pat, fam, w)
    assert full is not None
    assert is_perfect_packing(k9, full, universe=k9.full_mask()).ok

    diag = {}
    k30 = complete_graph(30)
    fam30 = build_absorbing_family(k30, pat, sample_size=80, rng_seed=2, max_gadgets=3)
    outside = list(bits(k30.full_mask() & ~fam30.M))
    assert absorb(k30, pat, fam30, outside[:6], diagnostics=diag) is None
    assert "capacity" in diag["reason"]

    with pytest.raises(ValueError, match="divisible"):
        absorb(k30, pat, fam30, outside[:2])
    with pytest.raises(ValueError, match="intersects"):
        absorb(k30, pat, fam30, list(bits(fam30.M))[:3])


@pytest.mark.parametrize("name,t,n,p", [
    ("K3", 1, 24, 0.75), ("K3", 2, 30, 0.85),
    ("T3", 1, 24, 0.8), ("T3", 2, 30, 0.9),
    ("K2,2", 1, 32, 0.75), ("K2,2", 2, 48, 0.9),
])
def test_absorb_matches_recursive_reference(name, t, n, p):
    """Packings and reasons are those of the table of local packings and the
    recursive assignment search, for |W| of 0, h and 2h, on hosts of falling
    density (the sparser ones leave vertices no gadget absorbs)."""
    pattern = pattern_from_name(name)
    h = pattern.order
    rng = random.Random(f"absorb:{name}:{t}")
    outcomes = set()
    for i in range(4):
        q = p - 0.1 * i
        host = sample_digraph(rng, n, q) if pattern.is_digraph else sample_gnp(rng, n, q)
        try:
            fam = build_absorbing_family(host, pattern, t=t, sample_size=100, rng_seed=i)
        except FamilyConstructionError:
            continue
        rest = list(bits(host.full_mask() & ~fam.M))
        for size in (0, h, 2 * h):
            for _ in range(2):
                W = rng.sample(rest, size)
                diag = {}
                got = absorb(host, pattern, fam, W, diagnostics=diag)
                want, reason = reference_absorb(host, pattern, fam, W)
                assert diag.get("reason") == reason
                assert (got and got.parts) == (want and want.parts)
                outcomes.add((size, got is not None))
    assert {(0, True), (h, True)} <= outcomes and any(not ok for _, ok in outcomes)


@pytest.mark.parametrize("count,reason", [
    (9, "found within 500 configurations"),
    (8, "exists: the search tried all 336 configurations"),
])
def test_absorb_reason_tells_the_cap_from_an_exhausted_search(count, reason):
    """W = {0, 1, 2} and gadgets that are edges joined to all of W, with no
    edge between gadgets: every gadget absorbs every vertex of W, and the
    idle gadgets never pack.  9 gadgets give 504 assignments, past the
    cap; 8 give 336, all tried."""
    edges = []
    for gi in range(count):
        a, b = 3 + 2 * gi, 4 + 2 * gi
        edges += [(a, b), *((w, a) for w in range(3)), *((w, b) for w in range(3))]
    host = Graph(3 + 2 * count, edges)
    fam = AbsorbingFamily(
        tuple(AbsorbingGadget((3 + 2 * gi, 4 + 2 * gi), 0) for gi in range(count)), {}, 0
    )
    diag = {}
    assert absorb(host, clique_pattern(3), fam, [0, 1, 2], diagnostics=diag) is None
    assert diag["reason"].endswith(reason)
    assert reference_absorb(host, clique_pattern(3), fam, [0, 1, 2]) == (None, diag["reason"])


def test_pipeline_complete_graph():
    res = pipeline(complete_graph(24), clique_pattern(3), rng_seed=3)
    assert res.success
    assert is_perfect_packing(complete_graph(24), res.packing).ok


def test_pipeline_extremal_failure_trace():
    inst = extremal_instance(ExtremalParams(3, (2, 2, 2), 36, 1))
    res = pipeline(
        inst.graph, pattern_from_name("K2,2,2"), rng_seed=7, sample_size=120
    )
    assert not res.success
    assert res.stage in ("absorbing-family", "absorb")
    assert "reason" in res.diagnostics


def test_pipeline_divisibility_failure():
    res = pipeline(complete_graph(7), clique_pattern(3))
    assert not res.success and res.stage == "divisibility"


def test_pipeline_dense_digraph():
    rng = random.Random(11)
    arcs = []
    for i in range(24):
        for j in range(24):
            if i != j and rng.random() < 0.85:
                arcs.append((i, j))
    d = Digraph(24, arcs)
    res = pipeline(d, transitive_pattern(3), rng_seed=2)
    assert res.success
    assert is_perfect_packing(d, res.packing).ok


def test_family_json_shape():
    fam = build_absorbing_family(
        complete_graph(15), clique_pattern(3), sample_size=60, rng_seed=4, max_gadgets=3
    )
    obj = fam.to_json_obj()
    assert set(obj) == {"M", "gadgets", "params", "seed"}
    assert all(set(g) == {"verts", "pairs_checked"} for g in obj["gadgets"])
    assert obj["M"] == sorted(v for g in fam.gadgets for v in g.verts)
    assert AbsorbingFamily.from_json_obj(fam.to_json_obj()) == fam
    assert AbsorbingFamily.from_json_obj(json.loads(json.dumps(obj))) == fam
    shapeless = {"gadgets": [{"verts": 5, "pairs_checked": 0}]}
    for bad in ({}, [], {"gadgets": [{"verts": [0, 1]}]}, shapeless):
        with pytest.raises(ValueError, match="^bad family file: "):
            AbsorbingFamily.from_json_obj(bad)


def test_star_blowup_minimal_r():
    # r = 2 is the smallest admissible pattern: blocks are single stacks
    _, p = clique_path(2, 3)
    sb = star_blowup(p, 2)
    assert sb.order() == 2 * 2 * 3 + 1
    assert verify_star_blowup(sb).ok


def test_blowup_iterate_stop_proportion():
    from fractions import Fraction

    from tilinglab.exchange import blowup_iterate

    # the iteration stops at a perfect packing: round 0 already covers all
    # six vertices, so no blow-up happens
    d = symmetrize(complete_graph(6))
    res = blowup_iterate(d, 3, 3, Fraction(1, 20))
    assert res.digraph.n == 6 and res.packing.coverage() == 6
    assert res.proportions == [1] and all(row.round == 0 for row in res.trace)


def test_pipeline_class_imbalance_fails_cleanly():
    # complete 3-partite with classes 13/12/11: every triangle is a
    # transversal, so no perfect packing exists; the pipeline must stop
    # with a diagnosed stage instead of looping
    from tilinglab.constructions import hs_tight_instance

    g = hs_tight_instance(3, 36)
    res = pipeline(g, clique_pattern(3), rng_seed=5)
    assert not res.success
    assert res.stage in ("absorbing-family", "absorb")


def test_pipeline_deterministic_under_seed():
    import random

    rng = random.Random(77)
    g = Graph(
        24,
        [(i, j) for i in range(24) for j in range(i + 1, 24) if rng.random() < 0.85],
    )
    a = pipeline(g, clique_pattern(3), rng_seed=6)
    b = pipeline(g, clique_pattern(3), rng_seed=6)
    assert a.success == b.success
    if a.success:
        assert a.packing.parts == b.packing.parts
        assert a.diagnostics == b.diagnostics


def test_perfect_on_subset_one_part_matches_search():
    # the search of the host within a vertex mask gives the parts that
    # `find_perfect_packing` gives on the induced subgraph, mapped back: for
    # sets of one, two and three parts, a size the pattern order does not
    # divide (None) and the empty set (no parts)
    rng = random.Random("one-part")
    cases = [(sample_gnp(rng, 10, 0.6), clique_pattern(3)),
             (sample_gnp(rng, 10, 0.8), clique_pattern(3)),
             (sample_gnp(rng, 12, 0.7), pattern_from_name("K2,2")),
             (sample_gnp(rng, 12, 0.9), pattern_from_name("K2,2")),
             (sample_tournament(rng, 9), transitive_pattern(3))]
    found = set()
    for host, pattern in cases:
        h = pattern.order
        for size in (h, 2 * h, 3 * h, h + 1, 0):
            for _ in range(40):
                verts = rng.sample(range(host.n), size)
                mask = sum(1 << v for v in verts)
                got = perfect_parts_within(host, pattern, mask, None)
                assert got == reference_perfect_on_subset(host, pattern, verts)
                found.add((size // h, size % h, got is not None))
    assert found >= {(1, 0, True), (2, 0, True), (3, 0, True), (1, 0, False), (2, 0, False)}
    assert (1, 1, False) in found and (0, 0, True) in found and (1, 1, True) not in found
    assert perfect_parts_within(complete_graph(4), clique_pattern(3), 0, None) == []
    with pytest.raises(ValueError):
        perfect_parts_within(sample_tournament(rng, 4), clique_pattern(3), 0b111, None)


@pytest.mark.parametrize("name,n,p", [
    ("K3", 15, 0.5), ("K3", 21, 0.35), ("T3", 12, 0.5), ("T3", 15, 0.35), ("K2,2", 16, 0.5),
])
def test_almost_pack_matches_induced_regreedy(name, n, p):
    """`_almost_pack` within a vertex mask gives the parts that the greedy
    rounds and exchanges give on an induced copy of the mask, mapped back:
    for the full mask, random masks (one of a size the pattern order does
    not divide) and the complement of a random gadget-sized set.  Some
    hosts gain parts in a round after the exchanges."""
    pattern = pattern_from_name(name)
    h = pattern.order
    rng = random.Random(f"almost:{name}:{n}")
    gained = 0
    for _ in range(30):
        host = sample_digraph(rng, n, p) if pattern.is_digraph else sample_gnp(rng, n, p)
        full = host.full_mask()
        sizes = (h * rng.randrange(1, n // h + 1), h * rng.randrange(n // h) + 1)
        masks = [full, *(mask(rng.sample(range(n), size)) for size in sizes),
                 full & ~mask(rng.sample(range(n), h - 1))]
        for within in masks:
            sub, mapping = host.induced(bits(within))
            want = reference_almost_pack(sub, pattern)
            got = _almost_pack(host, pattern, within)
            assert got == Packing.uniform(
                host.n, [[mapping[v] for v in part] for part in want.parts], pattern)
            gained += len(got.parts) > len(greedy_parts(host, pattern, within))
    assert gained or not (pattern.clique_order or pattern.transitive_order)


@pytest.mark.parametrize("name", ["K1", "T1"])
def test_almost_pack_at_order_one_stays_in_its_mask(name):
    # every vertex of the mask is a copy, and no vertex outside the mask,
    # though of lower rank, is exchanged in
    pattern = pattern_from_name(name)
    rng = random.Random(f"almost:{name}")
    host = sample_digraph(rng, 9, 0.5) if pattern.is_digraph else sample_gnp(rng, 9, 0.5)
    mask = 0b101101010
    assert _almost_pack(host, pattern, mask).parts == tuple((v,) for v in bits(mask))


# (name, n, p, seed, max_gadgets) and the pinned (success, stage, leftover,
# digest); test ids name only the inputs, so a planned re-pin keeps them
PIPELINE_PINS = [
    (("K3", 30, 0.7, 2, None), (True, None, 0,
     "86721b425bdbc41ab3c698b89d17d54f30cd86ce388f42a6d608fddd48a7c43a")),
    (("K3", 30, 0.7, 5, None), (True, None, 0,
     "138acd4659ceb80e89bc3250d353a602c6931ef35301ea182d8c057473936aff")),
    (("K3", 36, 0.6, 3, 8), (True, None, 0,
     "7266e76a40db5a4c088e9f892b54aac2749d785b707f3e9abcd10ffa99fc714a")),
    (("K3", 24, 0.5, 5, None), (False, "absorb", 3,
     "96a30962f7fab58c82e64eb19120d6d2948532b61b30d68431b3902d04330649")),
    (("K3", 24, 0.5, 3, None), (False, "absorb", 6,
     "6be6028178206c254c18edba45c3de4fde9093172c1c8b479c5c283878dbb6a2")),
    (("K3", 24, 0.5, 2, None), (True, None, 3,
     "627283162ff33f5530888fdf169ef11bad4aa815cd770de6a36f56b8bd5e7f77")),
    (("K3", 21, 0.3, 1, None), (False, "absorbing-family", None,
     "b98267bce8b9eaa73f1a2f28ae058435164f79a995d89e802911666b3c7a0611")),
    (("T3", 30, 0.7, 1, None), (True, None, 0,
     "6e9285502bc2b0d4b91a9462e4a028aac545128a07ef8926174ffee4d623895a")),
    (("T3", 36, 0.65, 4, 8), (True, None, 0,
     "f2f0f2d4db148d61d57d9cc8d05d5682988e68f76adcae2b253d1fd7a924ba32")),
    (("T3", 24, 0.45, 2, None), (True, None, 0,
     "09be53da8f592fa66d5d7af4f94b492b9c7290d8e6f7cfe2fd2daf6e9f63d2c9")),
    (("T3", 21, 0.4, 5, None), (True, None, 3,
     "c0dbdda60b94eb31e6bbbffbca5b4c86308c4b582f4a472cff8d0a39a0ed535f")),
    (("K2,2", 24, 0.7, 1, None), (True, None, 4,
     "a62e7d9c4b2addb0478b950b7289b37e160b8698f0701d69072fd58da94541c8")),
    (("K2,2", 24, 0.7, 4, None), (True, None, 0,
     "617722e31bae7f548d9a7e83769a78c92fbf6e3b18403f5551bd9fffc0db9288")),
]


# The same hosts with the absorbing families that the first `split_seed`
# (one generator per candidate and per sampled pair, the master seed XORed
# into the first path element) drew, kept in a fixture: given its family,
# `pipeline` must still give the output pinned under that derivation.  These
# ids name the pinned outputs too, as the pins of that derivation were named.
FIRST_SPLIT_SEED_PINS = [
    (("K3", 30, 0.7, 2, None), (True, None, 0,
     "a3b4a2231841c5d6d1c5a9c5575e02b307649846f59f87e38b0056a8782d59b9")),
    (("K3", 30, 0.7, 5, None), (True, None, 0,
     "59c02e79b9cdc622e731dd1e5db3d9ce521f76a13d17c6c0327f46fc1d2fd84c")),
    (("K3", 36, 0.6, 3, 8), (True, None, 0,
     "7ee6f88c1295ab008f10636fc33ff5195b2da6d1b848888e08d4eb847af82953")),
    (("K3", 24, 0.5, 5, None), (True, None, 3,
     "c3909bab0e97e741848650753bb21b1b1a70181495ba74708718e4cb801c4cbf")),
    (("K3", 24, 0.5, 3, None), (False, "absorb", 3,
     "bba6edbeeca073ff4f7859fb49220a9fb93d3371d19b7720a931177c10c52e85")),
    (("K3", 24, 0.5, 2, None), (False, "absorbing-family", None,
     "cfcf68450c9b140f22bba370ef4b2fc94788d324e155a88feeacead51836de60")),
    (("K3", 21, 0.3, 1, None), (False, "absorb", 6,
     "a251b44f3b065c9799b581646181b7a9bc696f98ff9231492beb9d9ec9825c2c")),
    (("T3", 30, 0.7, 1, None), (True, None, 0,
     "df3a0cd902f5c3068a8ce4d3d1d6b067d89a0b443bd2fd6a998975e41b3a6ce6")),
    (("T3", 36, 0.65, 4, 8), (True, None, 0,
     "eafc3370ecd705c51549394b990bd2d5968e609b54a53a89a6e4687212c8c05a")),
    (("T3", 24, 0.45, 2, None), (True, None, 3,
     "2927183e48df31264899ebb5e094083298040862806a92ba72efe0831550479c")),
    (("T3", 21, 0.4, 5, None), (False, "absorb", 3,
     "06a4b802f07790a82dc225a67ddfb01a59b554de78c49a17f1cf50f2d6f70733")),
    (("K2,2", 24, 0.7, 1, None), (True, None, 4,
     "1fb17ab65bce2fbed98f0fddcae05681bebf0ef73431dacdc799e42c59c39cf2")),
    (("K2,2", 24, 0.7, 4, None), (False, "absorb", 4,
     "34d660113f7c409a4473b8e320d55ec99c417882ee8676206921fc4f5b45e9df")),
]
FIRST_SPLIT_SEED_FAMILIES = pathlib.Path(__file__).parent / "fixtures" / (
    "pipeline_families_first_split_seed.json")


def _kept_family(case):
    """A stand-in for `build_absorbing_family` that returns, or fails with,
    the family kept for `case` in FIRST_SPLIT_SEED_FAMILIES."""
    obj = json.loads(FIRST_SPLIT_SEED_FAMILIES.read_text())["-".join(map(str, case))]

    def build(*args, **kwargs):
        if "error" in obj:
            raise FamilyConstructionError(obj["error"])
        return AbsorbingFamily.from_json_obj(obj)

    return build


@pytest.mark.parametrize(
    "case, pinned, kept_family",
    [(case, pinned, False) for case, pinned in PIPELINE_PINS]
    + [(case, pinned, True) for case, pinned in FIRST_SPLIT_SEED_PINS],
    ids=["-".join(map(str, case)) for case, _ in PIPELINE_PINS]
    + ["-".join(map(str, case + pinned)) for case, pinned in FIRST_SPLIT_SEED_PINS],
)
def test_pipeline_output_is_pinned(case, pinned, kept_family, monkeypatch):
    """Seeded hosts through `pipeline`: K3 and T3 hosts whose almost-perfect
    stage takes exchange steps, K2,2 hosts (greedy only), and failures in
    the family and absorb stages.  Success, stage and the leftover count
    are pinned, and the parts and diagnostics through a digest, so a
    rewrite of the almost-perfect stage must give the same packing."""
    import hashlib

    name, n, p, seed, max_gadgets = case
    success, stage, leftover, digest = pinned
    if kept_family:
        monkeypatch.setattr(absorbing_module, "build_absorbing_family", _kept_family(case))
    pattern = pattern_from_name(name)
    rng = random.Random(seed)
    host = sample_digraph(rng, n, p) if pattern.is_digraph else sample_gnp(rng, n, p)
    res = pipeline(host, pattern, rng_seed=seed, max_gadgets=max_gadgets)
    assert (res.success, res.stage) == (success, stage)
    assert res.diagnostics.get("leftover") == leftover
    assert ("reason" in res.diagnostics) != success
    parts = None if res.packing is None else [list(part) for part in res.packing.parts]
    blob = json.dumps([parts, res.diagnostics], sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest
