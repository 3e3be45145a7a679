import enum
import itertools
import pathlib
import random
import tracemalloc

import pytest

from tilinglab import packing
from tilinglab.constructions import (
    ExtremalParams,
    certify_uncoverable,
    clique_pattern,
    complete_graph,
    complete_multipartite,
    extremal_instance,
    hs_tight_instance,
    pattern_from_name,
    pattern_power,
    transitive_pattern,
    transitive_tournament,
)
from tilinglab.graphs import (
    Digraph, Graph, PatternGraph, bits, load_graph, mask, symmetrize, twin_partition
)
from tilinglab.packing import (
    BudgetExhausted,
    Packing,
    SearchBudget,
    completion_mask,
    enumerate_copies,
    find_perfect_packing,
    greedy_packing,
    is_perfect_packing,
    max_packing,
    perfect_parts_within,
    spans_pattern,
    transitive_order,
    verify_parts,
)

from oracles import (
    brute_embeds,
    brute_twin_classes,
    brute_spans,
    equitable_complement_packing,
    oracle_max_coverage,
    oracle_perfect_decision,
    raw_pairs,
    reference_clique_copies,
    reference_is_perfect_packing,
    reference_max_packing,
    recursion_room,
    reference_perfect_on_subset,
    reference_perfect_packing,
    reference_transitive_copies,
    reference_twin_copies,
    sample_digraph,
    sample_gnp,
    sample_tournament,
)

C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])

# patterns the twin-class search serves, with different class structures
TWIN_PATTERNS = [
    pattern_from_name("K2,2"),
    PatternGraph(Graph(4, [(0, 1), (1, 2), (2, 3)])),  # P4: generic
    PatternGraph(Digraph(3, [(0, 1), (1, 2), (2, 0)])),  # C3: generic
    pattern_from_name("K1,3"),
    pattern_from_name("K2,2,2"),
    PatternGraph(C5, name="C5"),
    PatternGraph(Graph(3), name="E3"),
    # 0 and 1 form a 2-cycle and are twins: a class joined both ways
    PatternGraph(Digraph(4, [(0, 1), (1, 0), (0, 2), (1, 2), (2, 3)]), name="D4"),
    # 0 and 1 agree everywhere but on the one-way arc 0 -> 1
    PatternGraph(Digraph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]), name="D4-one-way"),
    pattern_from_name("T3^2"),
]


def test_enumerate_counts():
    assert len(list(enumerate_copies(complete_graph(4), clique_pattern(3)))) == 4
    t3 = transitive_tournament(3)
    copies = list(enumerate_copies(t3, transitive_pattern(3)))
    assert copies == [(0, 1, 2)]

    t32 = pattern_power("T", 3, 2)
    sets = set(enumerate_copies(t32, transitive_pattern(3)))
    arcs = t32.arcs
    brute = {
        trip
        for trip in itertools.combinations(range(6), 3)
        if brute_spans(arcs, trip, "T3")
    }
    assert sets == brute and len(sets) == 8


def test_enumerate_through_and_no_duplicates():
    g = complete_graph(6)
    through = list(enumerate_copies(g, clique_pattern(3), through=2))
    assert all(2 in s for s in through)
    assert len(through) == len(set(through)) == 10

    # generic enumerator path: multipartite pattern sets are deduped
    host = pattern_power("K", 3, 2)
    pat = pattern_from_name("K2,2,2")
    sets = list(enumerate_copies(host, pat))
    assert len(sets) == len(set(sets)) == 1


def test_enumerate_witnesses_embed():
    host = sample_gnp(random.Random(3), 8, 0.7)
    pat = pattern_from_name("K2,2")
    for verts in enumerate_copies(host, pat):
        emb = spans_pattern(host, verts, pat)
        assert sorted(emb.values()) == list(verts)
        for (a, b) in pat.base.edges:
            assert host.has_edge(emb[a], emb[b])


@pytest.mark.parametrize(
    "pattern",
    [clique_pattern(3), transitive_pattern(3), *TWIN_PATTERNS],
    ids=lambda pat: pat.name,
)
def test_enumerate_copies_match_oracle(pattern):
    rng = random.Random(31)
    # the six-vertex patterns need dense hosts to have copies at all
    dense = pattern.order >= 6
    found = 0
    for _ in range(6):
        if pattern.is_digraph:
            host = sample_digraph(rng, 7, 0.9 if dense else 0.5)
        else:
            host = sample_gnp(rng, 8, 0.85 if dense else 0.6)
        within = rng.getrandbits(host.n)
        through = rng.randrange(host.n)
        host_pairs = raw_pairs(host)
        spanning = [
            c
            for c in itertools.combinations(range(host.n), pattern.order)
            if brute_embeds(host_pairs, c, pattern.base)
        ]
        for t, w in ((None, None), (through, None), (None, within), (through, within)):
            got = list(enumerate_copies(host, pattern, through=t, within=w))
            want = [
                c
                for c in spanning
                if (t is None or t in c) and (w is None or all(w >> v & 1 for v in c))
            ]
            assert len(got) == len(set(got))
            assert got == sorted(got) == want
            found += len(got)
            # bits at or above n, even the endless ones of a negative mask, are ignored
            for high in (1 << host.n + 40, -1 << host.n):
                wide = (host.full_mask() if w is None else w) | high
                assert list(enumerate_copies(host, pattern, through=t, within=wide)) == got
    assert found > 0
    # a vertex outside the host is an error; one only masked out has no copy
    for bad in (-1, host.n):
        with pytest.raises(ValueError, match="out of range"):
            list(enumerate_copies(host, pattern, through=bad))
    without_0 = host.full_mask() & ~1
    assert list(enumerate_copies(host, pattern, through=0, within=without_0)) == []
    # a host of the other kind is an error, even one too small for a copy
    other = Graph(2) if pattern.is_digraph else Digraph(2)
    with pytest.raises(ValueError, match="kinds differ"):
        list(enumerate_copies(other, pattern))


def test_flat_copy_loops_match_recursive_reference():
    """The one-loop clique and transitive-tournament enumerators yield the
    sets of the nested-generator ones, in the same order, for every r from
    1 to 5, every ``through`` and with and without a random ``within``."""
    rng = random.Random(19)
    cases = copies = 0
    for n in range(15):
        for p in (0.2, 0.5, 0.8, 0.95):
            g, d = sample_gnp(rng, n, p), sample_digraph(rng, n, p)
            for r in range(1, 6):
                for within in (g.full_mask(), rng.getrandbits(n), rng.getrandbits(n)):
                    for through in [None, *(v for v in range(n) if within >> v & 1)]:
                        for host, flat, recursive in (
                            (g, packing._clique_copies, reference_clique_copies),
                            (d, packing._transitive_copies, reference_transitive_copies),
                        ):
                            got = list(flat(host, r, within, through))
                            assert got == list(recursive(host, r, within, through)), (
                                n, p, r, within, through, host.kind
                            )
                            cases += 1
                            copies += len(got)
    assert cases > 10_000 and copies > 100_000


@pytest.mark.parametrize("pattern", TWIN_PATTERNS, ids=lambda pat: pat.name)
def test_flat_twin_loop_matches_recursive_reference(pattern):
    """The one-loop twin-class enumerator yields the sets of the
    nested-generator one, in the same order, for every ``through`` and with
    and without a random ``within``."""
    rng = random.Random(f"twin:{pattern.name}")
    cases = copies = 0
    for n in range(pattern.order, pattern.order + 6):
        for p in (0.5, 0.8, 0.95):
            host = sample_digraph(rng, n, p) if pattern.is_digraph else sample_gnp(rng, n, p)
            for within in (host.full_mask(), rng.getrandbits(n)):
                for through in [None, *(v for v in range(n) if within >> v & 1)]:
                    got = list(packing._twin_copies(host, pattern, within, through))
                    assert got == list(reference_twin_copies(host, pattern, within, through))
                    cases += 1
                    copies += len(got)
    assert cases > 100 and copies > 0


def test_twin_search_runs_deeper_than_the_recursion_limit():
    """K2^h on its own host K_{h,h} is one copy found 2h levels deep, and
    the search needs no more frames for it than for a small pattern."""
    h = 60
    host, pattern = pattern_power("K", 2, h), pattern_from_name(f"K2^{h}")
    with recursion_room(40):
        copies = list(enumerate_copies(host, pattern, through=0))
        found = find_perfect_packing(host, pattern)
        cert = certify_uncoverable(host, 0, pattern)
    everything = tuple(range(2 * h))
    assert copies == [everything]
    assert found is not None and found.parts == (everything,)
    assert not cert.uncoverable and cert.refutation == everything


@pytest.mark.parametrize("pattern", TWIN_PATTERNS, ids=lambda pat: pat.name)
def test_spans_pattern_witness(pattern):
    """On hosts with extra edges, a witness maps the pattern onto the set and
    carries every pattern edge or arc; None exactly when no embedding exists."""
    rng = random.Random(57)
    h = pattern.order
    if pattern.is_digraph:
        hosts = [sample_digraph(rng, h + 1, p) for p in (0.6, 0.8, 0.9, 0.95)]
        hosts.append(symmetrize(complete_graph(h + 1)))
        pairs = pattern.base.arcs
    else:
        hosts = [sample_gnp(rng, h + 2, p) for p in (0.5, 0.7, 0.85)]
        hosts.append(complete_graph(max(h, 8)))  # K8 for K2,2,2
        pairs = pattern.base.edges
    spanned = missed = 0
    for host in hosts:
        has = host.has_arc if pattern.is_digraph else host.has_edge
        host_pairs = raw_pairs(host)
        for verts in itertools.combinations(range(host.n), h):
            emb = spans_pattern(host, verts, pattern)
            assert (emb is not None) == brute_embeds(host_pairs, verts, pattern.base)
            if emb is None:
                missed += 1
                continue
            spanned += 1
            assert sorted(emb) == list(range(h))
            assert sorted(emb.values()) == list(verts)
            assert all(has(emb[a], emb[b]) for a, b in pairs)
    assert spanned and (missed or not pairs)  # an edgeless pattern spans every set


def _star_forest_host(rng, n, directed):
    """A dense seeded host whose vertex 0 sees a star forest, as vertex 0 of
    the sharpness construction does: inside N(0) only the star edges, and
    0 not joined to the rest.  A digraph joins each pair one way or both."""
    a = rng.randint(4, 6)
    centre = [0] * (a + 1)  # centre[u]: the centre of u's star in N(0) = 1..a
    u = 1
    while u <= a:
        end = min(u + rng.randint(1, 3), a + 1)
        centre[u:end] = [u] * (end - u)
        u = end
    pairs = []
    for u in range(n):
        for w in range(u + 1, n):
            if u == 0:
                joined = w <= a
            elif w <= a:
                joined = centre[u] == u and centre[w] == u
            else:
                joined = rng.random() < 0.85
            if joined:
                pairs.append((u, w))
    if not directed:
        return Graph(n, pairs)
    arcs = []
    for u, w in pairs:
        way = rng.randrange(3)
        arcs += [(u, w)] * (way != 1) + [(w, u)] * (way != 0)
    return Digraph(n, arcs)


def _assert_copies_match_oracle(host, pattern, within):
    """Inside ``within``, the copies through each vertex, and through none,
    are the brute-force list in content and order, and `spans_pattern`
    agrees with the oracle on every candidate set; returns the copy count."""
    inside = [v for v in range(host.n) if within >> v & 1]
    spanning = []
    host_pairs = raw_pairs(host)
    for c in itertools.combinations(inside, pattern.order):
        spans = brute_embeds(host_pairs, c, pattern.base)
        assert (spans_pattern(host, c, pattern) is not None) == spans, c
        if spans:
            spanning.append(c)
    assert list(enumerate_copies(host, pattern, within=within)) == spanning
    for v in inside:
        got = list(enumerate_copies(host, pattern, through=v, within=within))
        assert got == [c for c in spanning if v in c], v
    return len(spanning)


PRUNED_PATTERNS = [
    *(pattern_from_name(name) for name in ("K2,2", "K2,2,2", "K3,3", "K3^2", "T3^2")),
    PatternGraph(C5, name="C5"),
    PatternGraph(Graph(4, [(0, 1), (1, 2), (2, 3)]), name="P4"),
]


@pytest.mark.parametrize("pattern", PRUNED_PATTERNS, ids=lambda pat: pat.name)
def test_copies_where_dead_states_are_dropped(pattern):
    """The engine drops a twin-class state once a class allows fewer host
    vertices than its room.  Where that fires most, the star-forest
    neighbourhood of the sharpness construction, copies and spanning
    verdicts are still those of the brute-force oracle.  The n=36 instance
    is split into four windows of nine vertices, so every vertex is checked
    as ``through`` in its window; T3^2 takes digraphs instead."""
    rng = random.Random(f"star-forest:{pattern.name}")
    hosts = [_star_forest_host(rng, 9, pattern.is_digraph) for _ in range(3)]
    cases = [(host, host.full_mask()) for host in hosts]
    if pattern.is_digraph:
        t33 = pattern_power("T", 3, 3)  # T3 blown up by 3: every vertex has copies
        cases.append((t33, t33.full_mask()))
    else:
        ext = extremal_instance(ExtremalParams(3, (2, 2, 2), 36, 1)).graph
        order = list(range(ext.n))
        random.Random(36).shuffle(order)
        cases += [(ext, sum(1 << v for v in order[k : k + 9])) for k in range(0, ext.n, 9)]
    assert sum(_assert_copies_match_oracle(host, pattern, within) for host, within in cases)


COMPLETION_PATTERNS = [
    *(
        pattern_from_name(name)
        for name in ("K1", "K2", "K3", "K4", "K5", "T1", "T2", "T3", "T4", "T5",
                     "K1,2", "K2,2,2", "K2,3")
    ),
    PatternGraph(Digraph(3, [(0, 1), (1, 2), (2, 0)]), name="C3"),  # no twins, not transitive
]


def _completion_hosts(rng, pattern, n):
    """Seeded hosts of order n for `test_completion_mask_matches_spanning_scan`:
    G(n, p) or random digraphs at two densities and, for a digraph pattern,
    a tournament (no arcs both ways) and the complete symmetric digraph
    (arcs both ways everywhere)."""
    if not pattern.is_digraph:
        return [sample_gnp(rng, n, p) for p in (0.6, 0.9)]
    every = [(u, v) for u in range(n) for v in range(n) if u != v]
    return [sample_digraph(rng, n, p) for p in (0.6, 0.9)] + [
        sample_tournament(rng, n), Digraph(n, every)
    ]


@pytest.mark.parametrize("pattern", COMPLETION_PATTERNS, ids=lambda pat: pat.name)
def test_completion_mask_matches_spanning_scan(pattern):
    """For every (h-1)-set of seeded hosts of order 3 to 10, given in
    shuffled order, the completion mask holds exactly the vertices w for
    which the set plus w spans the pattern."""
    rng = random.Random(f"completion:{pattern.name}")
    h = pattern.order
    hits = misses = 0
    for n in range(max(3, h), 11):
        for host in _completion_hosts(rng, pattern, n):
            for base in itertools.combinations(range(n), h - 1):
                verts = list(base)
                rng.shuffle(verts)
                want = 0
                for w in range(n):
                    if w not in base and spans_pattern(host, verts + [w], pattern) is not None:
                        want |= 1 << w
                assert completion_mask(host, pattern, verts) == want, (n, verts)
                hits += want.bit_count()
                misses += n - h + 1 - want.bit_count()
    # every vertex completes the empty set to a one-vertex pattern
    assert hits and (misses or h == 1)
    other = Graph(h) if pattern.is_digraph else Digraph(h)
    with pytest.raises(ValueError, match="kinds differ"):
        completion_mask(other, pattern, list(range(h - 1)))
    for bad in (list(range(h)), [0] * max(h - 1, 2)):
        with pytest.raises(ValueError, match="distinct vertices"):
            completion_mask(host, pattern, bad)
    # a vertex outside the host is refused and named, not wrapped to the last
    # row or failing on a negative shift (a one-vertex pattern takes none)
    for bad in (-1, host.n) if h > 1 else ():
        verts = list(range(h - 2)) + [bad]
        with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
            completion_mask(host, pattern, verts)
        with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
            spans_pattern(host, verts + [h - 2], pattern)


def test_transitive_order_helper():
    t4 = transitive_tournament(4)
    assert transitive_order(t4, [2, 0, 3, 1]) == [0, 1, 2, 3]
    cyc = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert transitive_order(cyc, [0, 1, 2]) is None


def test_spans_multipartite():
    host = complete_multipartite(2, 2, 2)
    pat = pattern_from_name("K2,2,2")
    assert spans_pattern(host, range(6), pat) is not None
    missing = Graph(6, [e for e in host.pairs() if e != (0, 2)])
    assert spans_pattern(missing, range(6), pat) is None


def test_find_perfect_examples():
    p = find_perfect_packing(complete_graph(6), clique_pattern(3))
    assert p is not None and p.coverage() == 6

    star = complete_multipartite(3, 1)
    assert find_perfect_packing(star, clique_pattern(2)) is None

    t42 = pattern_power("T", 4, 2)
    p = find_perfect_packing(t42, transitive_pattern(4))
    assert p is not None and is_perfect_packing(t42, p).ok


def test_round_trip_verification():
    rng = random.Random(8)
    for _ in range(30):
        g = sample_gnp(rng, 6, rng.uniform(0.4, 1.0))
        p = find_perfect_packing(g, clique_pattern(2))
        if p is not None:
            assert is_perfect_packing(g, p).ok


def test_greedy_parts_refuses_a_negative_mask():
    # -1 is no vertex set: the error is the mask's, before any copy is
    # sought, not a late out-of-range vertex from an endless walk of its bits
    with pytest.raises(ValueError, match="negative vertex mask -1"):
        packing.greedy_parts(complete_graph(4), clique_pattern(2), -1)


def test_verifier_violations():
    g = complete_graph(6)
    pat = clique_pattern(3)
    overlap = Packing.uniform(6, [(0, 1, 2), (2, 3, 4)], pat)
    res = is_perfect_packing(g, overlap)
    assert not res.ok and "vertex 2" in res.reason

    g9 = complete_graph(9)
    short = Packing.uniform(9, [(0, 1, 2), (3, 4, 5)], pat)
    res = is_perfect_packing(g9, short)
    assert not res.ok and "coverage" in res.reason

    nonspan = Packing.uniform(5, [(0, 1, 3)], pat)
    res = is_perfect_packing(C5, nonspan, universe=mask((0, 1, 3)))
    assert not res.ok and "span" in res.reason
    with pytest.raises(ValueError, match="universe -1 is not a vertex mask"):
        is_perfect_packing(C5, nonspan, universe=-1)


class _Vertex(enum.IntEnum):
    ONE = 1


def _planted(rng, n, tagged, p, drop=None):
    """A host of order n carrying each pattern on its part (pattern vertex i
    on the part's vertex i) and extra pairs at density p.  Given ``drop``, a
    planted pair of the first part, the host misses that pair and has no
    extra pair inside the first part."""
    directed = tagged[0][1].is_digraph
    first = tagged[0][0] if drop else ()
    pairs = {
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and (directed or u < v) and rng.random() < p
        and not (u in first and v in first)
    }
    for part, pat in tagged:
        base = pat.base.arcs if directed else pat.base.edges
        pairs.update((part[a], part[b]) for a, b in base)
    if drop is not None:
        pairs -= {drop} if directed else {drop, drop[::-1]}
    return Digraph(n, pairs) if directed else Graph(n, pairs)


def _corrupted(n, parts, pats):
    """(label, parts, patterns, universe) variants of a valid packing."""
    first, last = parts[0], parts[-1]
    yield "valid", parts, pats, None
    yield "valid, every vertex as universe", parts, pats, list(range(n))
    yield "valid parts of a subset", parts[:-1], pats[:-1], [v for p in parts[:-1] for v in p]
    yield "a part twice", parts + [first], pats + [pats[0]], None
    yield "overlapping parts", parts[:-1] + [(first[0],) + last[1:]], pats, None
    yield "a vertex repeated in a part", [(first[0],) + first[:-1]] + parts[1:], pats, None
    for bad in (n, -1):
        yield "a vertex out of range", [first[:-1] + (bad,)] + parts[1:], pats, None
    one = [tuple(True if v == 1 else v for v in p) for p in parts]
    yield "a bool vertex", one, pats, None
    enum_one = [tuple(_Vertex.ONE if v == 1 else v for v in p) for p in parts]
    yield "an IntEnum vertex", enum_one, pats, None
    yield "a part too small", [first[:-1]] + parts[1:], pats, None
    yield "a part too big", [first + (n,)] + parts[1:], pats, None
    yield "an uncovered vertex", parts[:-1], pats[:-1], None
    yield "a vertex outside the universe", parts, pats, [v for p in parts[1:] for v in p]
    swapped = [v for p in parts[:-1] for v in p if v != first[0]] + [last[0]]
    yield "a vertex outside a universe of its size", parts[:-1], pats[:-1], swapped
    yield "a universe vertex outside the host", parts, pats, list(range(n + 1))
    yield "a universe vertex a word above the host", parts, pats, [*range(n), n + 64]
    yield "an empty universe with no parts", [], [], []


def test_verifier_matches_detailed_reference():
    """The bitmask verifier gives the result of the set-based verifier,
    reason included, on valid and corrupted uniform and mixed packings of
    K_r, T_r and twin-class patterns, with and without a universe, which
    the bitmask verifier takes as a mask."""
    rng = random.Random(619)
    k2, k3, k4 = clique_pattern(2), clique_pattern(3), clique_pattern(4)
    t2, t3, t4 = transitive_pattern(2), transitive_pattern(3), transitive_pattern(4)
    c3 = TWIN_PATTERNS[2]
    families = [
        [k2], [k3], [k4], [t3], [t4], [pattern_from_name("K2,2")], [pattern_from_name("K1,2")],
        [c3], [k3, pattern_from_name("K2,2"), k2], [t4, t3, c3, t2],
    ]
    outcomes = {}
    for family in families:
        for p in (0.0, 0.3):
            pats = [rng.choice(family) for _ in range(rng.randint(2, 4))]
            n = sum(pat.order for pat in pats)
            order = list(range(n))
            rng.shuffle(order)
            parts, at = [], 0
            for pat in pats:
                parts.append(tuple(order[at:at + pat.order]))
                at += pat.order
            tagged = list(zip(parts, pats))
            hosts = [_planted(rng, n, tagged, p)]
            base0 = pats[0].base
            a, b = min(base0.arcs if base0.kind == "digraph" else base0.edges)
            hosts.append(_planted(rng, n, tagged, p, drop=(parts[0][a], parts[0][b])))
            other = transitive_pattern(pats[0].order) if not pats[0].is_digraph else (
                clique_pattern(pats[0].order)
            )
            variants = list(_corrupted(n, parts, pats))
            variants.append(("a pattern of the other kind", parts, [other] + pats[1:], None))
            for h, host in enumerate(hosts):
                for label, vparts, vpats, universe in variants:
                    packing_ = Packing(n, tuple(vparts), tuple(vpats))
                    got = is_perfect_packing(
                        host, packing_, None if universe is None else mask(universe)
                    )
                    want = reference_is_perfect_packing(host, packing_, universe)
                    assert got == want, (label, [pat.name for pat in pats], h)
                    if universe is None:
                        assert verify_parts(host, packing_) == reference_is_perfect_packing(
                            host, packing_, {v for part in vparts for v in part}
                        ), (label, h)
                    outcomes.setdefault((label, h), set()).add(got.ok)
    # the valid packings pass on their own host and fail without one pair
    valid = ("valid", "valid, every vertex as universe", "valid parts of a subset", "an IntEnum vertex")
    for label in valid:
        assert outcomes[label, 0] == {True} and outcomes[label, 1] == {False}
    assert outcomes["an empty universe with no parts", 1] == {True}
    broken = ("a part", "a pattern", "overlapping", "a vertex", "a bool", "an uncovered", "a universe")
    for label, h in outcomes:
        if label.startswith(broken):
            assert outcomes[label, h] == {False}, label


def test_solver_agrees_with_partition_oracle():
    rng = random.Random(12)
    cases = 0
    for _ in range(60):
        n = rng.choice((4, 6, 6, 8, 9))
        if rng.random() < 0.5 and n % 3 == 0:
            host = sample_tournament(rng, n)
            name, pat = "T3", transitive_pattern(3)
        elif n % 3 == 0 and rng.random() < 0.7:
            host = sample_gnp(rng, n, rng.uniform(0.3, 0.9))
            name, pat = "K3", clique_pattern(3)
        else:
            host = sample_gnp(rng, n, rng.uniform(0.2, 0.8))
            name, pat = "K2", clique_pattern(2)
        got = find_perfect_packing(host, pat)
        want = oracle_perfect_decision(host, name)
        assert (got is not None) == want
        if got is not None:
            assert is_perfect_packing(host, got).ok
        cases += 1
    assert cases == 60


def test_max_packing_examples():
    res = max_packing(C5, clique_pattern(2))
    assert res.packing.coverage() == 4 and res.optimal

    res = max_packing(complete_graph(5), clique_pattern(3))
    assert res.packing.coverage() == 3 and res.optimal


def test_max_packing_agrees_with_subset_oracle():
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randint(6, 12)
        host = sample_tournament(rng, n)
        res = max_packing(host, transitive_pattern(3))
        assert res.optimal
        assert res.packing.coverage() == oracle_max_coverage(host, "T3")
    for _ in range(10):
        n = rng.randint(5, 10)
        host = sample_gnp(rng, n, rng.uniform(0.3, 0.9))
        res = max_packing(host, clique_pattern(3))
        assert res.packing.coverage() == oracle_max_coverage(host, "K3")


def test_greedy_examples():
    p = greedy_packing(complete_graph(6), clique_pattern(3))
    assert p.coverage() == 6


def test_greedy_never_beats_max():
    rng = random.Random(44)
    for _ in range(200):
        n = rng.randint(4, 10)
        if rng.random() < 0.5:
            host = sample_tournament(rng, n)
            pat = transitive_pattern(3)
        else:
            host = sample_gnp(rng, n, rng.random())
            pat = clique_pattern(rng.choice((2, 3)))
        g = greedy_packing(host, pat)
        m = max_packing(host, pat)
        assert g.coverage() <= m.packing.coverage()
        # greedy output is a valid sub-packing
        assert is_perfect_packing(host, g, universe=g.covered_mask()).ok


def test_mixed_packing_verifies_per_part():
    t4 = transitive_tournament(4)
    host = Digraph(7, list(t4.arcs) + [(4, 5), (4, 6), (5, 6)])
    mixed = Packing.tagged(
        7, [((0, 1, 2, 3), transitive_pattern(4)), ((4, 5, 6), transitive_pattern(3))]
    )
    assert is_perfect_packing(host, mixed).ok
    assert mixed.is_mixed()
    bad = Packing.tagged(
        7, [((0, 1, 2, 3), transitive_pattern(4)), ((4, 5, 6), transitive_pattern(4))]
    )
    assert not is_perfect_packing(host, bad).ok


def test_budget_exhaustion_is_loud():
    g = complete_graph(9)
    with pytest.raises(BudgetExhausted):
        find_perfect_packing(g, clique_pattern(3), SearchBudget(1))
    res = max_packing(g, clique_pattern(3), SearchBudget(2))
    assert not res.optimal  # partial result flagged, not silently final


def test_equitable_complement_cross_validation():
    rng = random.Random(70)
    for _ in range(50):
        n = rng.choice((6, 9))
        g = sample_gnp(rng, n, rng.uniform(0.4, 1.0))
        a = find_perfect_packing(g, clique_pattern(3))
        b = equitable_complement_packing(g, 3)
        assert (a is None) == (b is None)
        if b is not None:
            assert is_perfect_packing(g, b).ok
    for _ in range(15):
        g = sample_gnp(rng, 8, rng.uniform(0.5, 1.0))
        a = find_perfect_packing(g, clique_pattern(4))
        b = equitable_complement_packing(g, 4)
        assert (a is None) == (b is None)


def test_packing_json():
    p = Packing.uniform(6, [(0, 1, 2), (3, 4, 5)], clique_pattern(3))
    obj = p.to_json_obj()
    assert obj == {"pattern": "K3", "parts": [[0, 1, 2], [3, 4, 5]]}
    mixed = Packing.tagged(
        7, [((0, 1, 2, 3), transitive_pattern(4)), ((4, 5, 6), transitive_pattern(3))]
    )
    obj = mixed.to_json_obj()
    assert obj["pattern"] == "mixed"
    assert obj["parts"][0]["pattern"] == "T4"


def test_adversarial_min_degree_instances():
    # every 6-vertex graph with min degree 4 has a perfect triangle packing;
    # near-extremal: complement is a perfect matching
    comp_edges = [(0, 1), (2, 3), (4, 5)]
    edges = [
        (u, v)
        for u in range(6)
        for v in range(u + 1, 6)
        if (u, v) not in comp_edges
    ]
    g = Graph(6, edges)
    assert min(g.degree(v) for v in range(6)) == 4
    assert find_perfect_packing(g, clique_pattern(3)) is not None
    # n=9 near-extremal: K_{3,3,3} exactly at the threshold
    g9 = complete_multipartite(3, 3, 3)
    assert find_perfect_packing(g9, clique_pattern(3)) is not None


def test_max_packing_with_family():
    host = transitive_tournament(4)
    fam = [transitive_pattern(3), transitive_pattern(4)]
    res = max_packing(host, fam)
    assert res.packing.coverage() == 4
    assert [p.name for p in res.packing.patterns] == ["T4"]


def test_multipartite_witness_is_a_real_embedding():
    # class sizes in non-sorted order: the witness must respect the
    # pattern's own class layout, not a size-sorted one
    pat = pattern_from_name("K1,2")
    host = complete_multipartite(1, 2)
    emb = spans_pattern(host, range(3), pat)
    assert emb is not None
    for a, b in pat.base.edges:
        assert host.has_edge(emb[a], emb[b])
    bigger = complete_multipartite(2, 1, 3)
    pat2 = pattern_from_name("K2,1,3")
    emb = spans_pattern(bigger, range(6), pat2)
    for a, b in pat2.base.edges:
        assert bigger.has_edge(emb[a], emb[b])


def test_mixed_family_bound_is_sound():
    # two disjoint transitive tournaments on 4: the optimum uses the larger
    # pattern even after smaller copies set an early incumbent
    t4 = transitive_tournament(4)
    arcs = list(t4.arcs) + [(u + 4, v + 4) for u, v in t4.arcs]
    host = Digraph(8, arcs)
    fam = [transitive_pattern(3), transitive_pattern(4)]
    res = max_packing(host, fam)
    assert res.packing.coverage() == 8


def test_degenerate_hosts():
    empty = Graph(0, [])
    p = find_perfect_packing(empty, clique_pattern(2))
    assert p is not None and p.parts == ()
    assert is_perfect_packing(empty, p).ok
    single = Graph(1, [])
    assert find_perfect_packing(single, clique_pattern(2)) is None


# the search must branch, count nodes and keep incumbents exactly as the
# recursive reference does: (pattern or family, directed host)
SEARCH_CASES = {
    "K2": (clique_pattern(2), False),
    "K3": (clique_pattern(3), False),
    "T3": (transitive_pattern(3), True),
    "K2,2": (pattern_from_name("K2,2"), False),
    "C5": (PatternGraph(C5, name="C5"), False),
    "T3+T4": ([transitive_pattern(3), transitive_pattern(4)], True),
}


def _search_hosts(name, count, orders):
    pattern, directed = SEARCH_CASES[name]
    rng = random.Random(f"search:{name}")
    for _ in range(count):
        n = rng.choice(orders)
        p = rng.uniform(0.3, 1.0)
        yield pattern, (sample_digraph(rng, n, p) if directed else sample_gnp(rng, n, p))


def _decide(solve, host, pattern, limit):
    """(parts or None, or "exhausted"; nodes ticked) of one decision run."""
    budget = SearchBudget(limit)
    try:
        found = solve(host, pattern, budget)
    except BudgetExhausted:
        return "exhausted", budget.nodes
    if found is None or isinstance(found, list):
        return found, budget.nodes
    return list(found.parts), budget.nodes


def _maximise(host, pattern, limit):
    budget = SearchBudget(limit)
    res = max_packing(host, pattern, budget)
    assert res.nodes == budget.nodes
    return list(zip(res.packing.parts, res.packing.patterns)), res.optimal, res.nodes


def _plain(reference):
    """The reference without the memo and the bound re-check."""
    return lambda host, pattern, budget=None: reference(host, pattern, budget, memo=False)


@pytest.mark.parametrize("name", list(SEARCH_CASES))
def test_search_matches_recursive_reference(name):
    outcomes = set()
    for pattern, host in _search_hosts(name, 25, (5, 6, 8, 9, 10, 12)):
        if isinstance(pattern, PatternGraph):
            got = _decide(find_perfect_packing, host, pattern, None)
            assert got == _decide(reference_perfect_packing, host, pattern, None)
            plain = _decide(_plain(reference_perfect_packing), host, pattern, None)
            assert got[0] == plain[0] and got[1] <= plain[1]
            outcomes.add(got[0] is None)
        got = _maximise(host, pattern, None)
        assert got == reference_max_packing(host, pattern)
        plain = _plain(reference_max_packing)(host, pattern)
        assert got[:2] == plain[:2] and got[2] <= plain[2]
        assert got[1]
    # some hosts have a perfect packing and some have none
    assert outcomes in (set(), {True, False})


@pytest.mark.parametrize(
    "name,orders", [("K3", (6, 9)), ("T3", (6, 9)), ("C5", (10,)), ("T3+T4", (7, 8, 9))]
)
def test_search_budget_limits_match_recursive_reference(name, orders):
    for pattern, host in _search_hosts(name, 4, orders):
        if isinstance(pattern, PatternGraph):
            _, total = _decide(find_perfect_packing, host, pattern, None)
            for limit in range(1, total + 1):
                got = _decide(find_perfect_packing, host, pattern, limit)
                assert got == _decide(reference_perfect_packing, host, pattern, limit)
                assert (got[0] == "exhausted") == (limit < total)
        total = max_packing(host, pattern).nodes
        for limit in range(1, total + 1):
            got = _maximise(host, pattern, limit)
            assert got == reference_max_packing(host, pattern, SearchBudget(limit))
            assert got[1] == (limit >= total)


def _peak_bytes(run):
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_deep_hosts_search_without_recursion():
    # Both hosts are far deeper than Python's recursion limit.  Every node
    # but the cycle's root has one branch, so the stack holds at most one
    # frame; a frame per level (0.4 to 0.8 MB more) breaks the memory bounds.
    # The edgeless host's search peaks near 46 KB on Python 3.11; keeping a
    # step for each vertex left uncovered with no choice point open took it
    # to 98 KB, and to 230 KB on a process's first call.
    n = 3000
    cycle = Graph(n, [(i, (i + 1) % n) for i in range(n)])
    k2 = clique_pattern(2)
    budget = SearchBudget()
    found, peak = _peak_bytes(lambda: find_perfect_packing(cycle, k2, budget))
    assert len(found.parts) == n // 2 and budget.nodes == n // 2 + 1
    assert peak < 1024 * 1024

    edgeless = Graph(1500)
    res, peak = _peak_bytes(lambda: max_packing(edgeless, k2))
    assert res.packing.coverage() == 0 and res.optimal and res.nodes == 1500
    assert peak < 128 * 1024


def _blow_up(base, sizes, joined):
    """Each base vertex b becomes sizes[b] twins, joined both ways or not by
    joined[b]; twins of b and c are joined as b and c are."""
    start = list(itertools.accumulate(sizes, initial=0))
    directed = isinstance(base, Digraph)
    pairs = list(base.arcs if directed else base.edges)
    pairs += [(b, b) for b in range(base.n) if joined[b]]
    out = [
        (u, v)
        for b, c in pairs
        for u in range(start[b], start[b + 1])
        for v in range(start[c], start[c + 1])
        if u != v and (directed or b != c or u < v)
    ]
    return (Digraph if directed else Graph)(start[-1], out)


def _twin_rich_hosts(count, most):
    """Seeded hosts of at most ``most`` vertices, each with twins: complete
    multipartite graphs, and blow-ups of small G(n, p) and digraphs."""
    rng = random.Random("twin-rich")
    for _ in range(count):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
        while sum(sizes) > most:
            sizes.pop()
        yield complete_multipartite(*sizes)
        for directed in (False, True):
            k = rng.randint(2, 5)
            base = (sample_digraph if directed else sample_gnp)(rng, k, rng.uniform(0.4, 0.9))
            sizes = [rng.randint(1, 3) for _ in range(k - 1)] + [rng.randint(2, 3)]
            while sum(sizes) > most:
                sizes[sizes.index(max(sizes))] -= 1
            yield _blow_up(base, sizes, [rng.random() < 0.5 for _ in range(k)])


def test_memo_is_sound_on_twin_rich_hosts():
    # the memo prunes by twin-class counts, and these hosts are made of
    # twins: decisions and coverage agree with the brute-force oracles, and
    # packings with the search without the memo
    patterns = {"K2": clique_pattern(2), "K3": clique_pattern(3), "T3": transitive_pattern(3)}
    # a family has several options per node: the memo replays their steps
    # and the vertices left uncovered
    families = {Digraph: [patterns["T3"], transitive_pattern(4)],
                Graph: [patterns["K2"], patterns["K3"]]}
    for host in _twin_rich_hosts(30, 12):
        assert any(len(c) > 1 for c in twin_partition(host))
        for name in ("T3",) if isinstance(host, Digraph) else ("K2", "K3"):
            pattern = patterns[name]
            got = _decide(find_perfect_packing, host, pattern, None)
            assert got == _decide(reference_perfect_packing, host, pattern, None)
            assert got[0] == _decide(_plain(reference_perfect_packing), host, pattern, None)[0]
            assert (got[0] is not None) == oracle_perfect_decision(host, name)
            if name != "T3":
                complement = equitable_complement_packing(host, pattern.order)
                assert (got[0] is not None) == (complement is not None)
            if host.n <= 10:
                got = _maximise(host, pattern, None)
                assert got == reference_max_packing(host, pattern)
                assert got[:2] == _plain(reference_max_packing)(host, pattern)[:2]
                assert got[1] and verify_parts(host, Packing.tagged(host.n, got[0])).ok
                assert sum(len(part) for part, _ in got[0]) == oracle_max_coverage(host, name)
        if host.n <= 10:
            family = families[type(host)]
            assert _maximise(host, family, None) == reference_max_packing(host, family)


def test_twin_partition_matches_pairwise_swaps():
    rng = random.Random("twin-partition")
    hosts = list(_twin_rich_hosts(10, 12))
    hosts += [sample_gnp(rng, 9, 0.5), sample_digraph(rng, 8, 0.5), Graph(5), complete_graph(5)]
    for host in hosts:
        assert twin_partition(host) == brute_twin_classes(host)


def _twin_free_cases():
    """Seeded hosts with and without twins, among them hosts whose rows are
    distinct but agree once each vertex's own bit is added (K_n, the
    complete symmetric digraph and blow-ups with classes joined both ways),
    edgeless hosts, tournaments (which have no twins), and a digraph whose
    out-rows agree but whose in-rows tell its vertices apart."""
    rng = random.Random("twin-free")
    hosts = list(_twin_rich_hosts(10, 12))
    for n in (1, 2, 5, 9):
        every = [(u, v) for u in range(n) for v in range(n) if u != v]
        hosts += [Graph(n), complete_graph(n), Digraph(n), Digraph(n, every),
                  sample_tournament(rng, n), transitive_tournament(n)]
    for n in range(3, 10):
        for p in (0.3, 0.5, 0.8):
            hosts += [sample_gnp(rng, n, p), sample_digraph(rng, n, p)]
    base = sample_tournament(rng, 4)
    hosts += [_blow_up(base, [1, 2, 1, 3], [True, True, False, True]),
              _blow_up(complete_graph(3), [2, 1, 2], [True, False, True])]
    hosts.append(Digraph(4, [(2, 0), (3, 1)]))  # 0 and 1 are sinks
    return hosts


def test_twin_free_shortcut_matches_pairwise_swaps(monkeypatch):
    """`_twin_free` says a host has no twins exactly when the brute-force
    twin classes are all single vertices; `_residual_key` then keys a
    residual by its mask, with no space test and no twin partition."""
    verdicts = set()
    for host in _twin_free_cases():
        verdict = packing._twin_free(host)
        assert verdict == (len(brute_twin_classes(host)) == host.n), host
        verdicts.add(verdict)
        if verdict:
            pattern = transitive_pattern(3) if isinstance(host, Digraph) else clique_pattern(3)
            with monkeypatch.context() as m:
                m.setattr(packing, "twin_partition", None)  # not to be called
                key, space = packing._residual_key(host, pattern)
            assert space is None
            assert all(key(r) == r for r in range(1 << host.n))
    assert verdicts == {False, True}
    # only the second test catches these twins: the rows are distinct
    symmetric = Digraph(4, [(u, v) for u in range(4) for v in range(4) if u != v])
    for host in (complete_graph(5), symmetric):
        assert len(set(host.adj if isinstance(host, Graph) else host.out)) == host.n
        assert not packing._twin_free(host)


# nodes of the `exact` benchmark rows; without the barriers the search
# takes 71, 255 and 37, and without the memo and the bound re-check as well
# 137,431, 93,505, 109,601 and 112,038
EXACT_NODES = {(3, 18): 6, (5, 20): 4, (2, 18): 9}


def test_exact_rows_node_counts():
    for (r, n), nodes in EXACT_NODES.items():
        budget = SearchBudget()
        assert find_perfect_packing(hs_tight_instance(r, n), clique_pattern(r), budget) is None
        assert budget.nodes == nodes
    ext = extremal_instance(ExtremalParams(3, (2, 2, 2), 36, 1, star_sizes=()))
    res = max_packing(ext.graph, pattern_from_name("K2,2,2"))
    assert (res.packing.coverage(), res.optimal, res.nodes) == (30, True, 8)


# `_twin_advance` calls of the `certify` rows (vertex 0 of the sharpness
# instance) and of the `exact` K2,2,2 max_packing; keeping the states in
# which a class can no longer be filled, they took 133,308, 3,180 and 3,216
TWIN_ADVANCES = {144: 1210, 36: 121, "max_packing": 157}
EXT36_MAX_PARTS = (
    (1, 2, 3, 17, 18, 19), (4, 5, 20, 21, 22, 23), (6, 7, 24, 25, 26, 27),
    (8, 9, 28, 29, 30, 31), (10, 11, 32, 33, 34, 35),
)


def test_copy_engine_work_counts(monkeypatch):
    calls = 0
    advance = packing._twin_advance

    def counted(*args):
        nonlocal calls
        calls += 1
        return advance(*args)

    monkeypatch.setattr(packing, "_twin_advance", counted)
    k222 = pattern_from_name("K2,2,2")
    for n, stars in ((144, (6, 6, 6, 6, 6, 6, 5, 4, 3, 2, 2)), (36, ())):
        ext = extremal_instance(ExtremalParams(3, (2, 2, 2), n, 1, star_sizes=stars))
        calls = 0
        assert certify_uncoverable(ext.graph, 0, k222).uncoverable
        assert calls == TWIN_ADVANCES[n]
    calls = 0
    res = max_packing(ext.graph, k222)
    assert (res.packing.parts, res.nodes) == (EXT36_MAX_PARTS, 8)
    assert calls == TWIN_ADVANCES["max_packing"]


@pytest.mark.parametrize("n,nodes", [(21, 7), (60, 20)])
def test_hs_tight_none_proofs(n, nodes):
    # without the space barrier the search takes 113 and 2,661 nodes, and
    # without the memo as well 5.77M at n=21; a budget one node short of
    # the proof is reported as exhausted, never as NONE
    host, k3 = hs_tight_instance(3, n), clique_pattern(3)
    budget = SearchBudget(nodes)
    assert find_perfect_packing(host, k3, budget) is None and budget.nodes == nodes
    for limit in (1, nodes // 2, nodes - 1):
        with pytest.raises(BudgetExhausted):
            find_perfect_packing(host, k3, SearchBudget(limit))


def _pendant_host(n):
    """K_{n-1} less its pairs u, v with 5 dividing u + v, and vertex n - 1
    joined to vertex 0 alone."""
    pairs = [(u, v) for u in range(n - 1) for v in range(u + 1, n - 1) if (u + v) % 5]
    return Graph(n, pairs + [(0, n - 1)])


# planted barriers: a pendant vertex is in no copy of a pattern of least
# degree 2; a part of 5 of 12 vertices is an independent twin class that
# K3 (at most 12/3 = 4 of it) and K2,2,2 (at most 2 * 12/6 = 4) cannot
# cover; equal parts hold no barrier
SPACE_5_OF_12 = "space, an independent twin class of 5 of 12 vertices"
BARRIER_CASES = {
    "K2,2 pendant": ("K2,2", _pendant_host(12), "local vertex 11"),
    "K3 pendant": ("K3", _pendant_host(12), "local vertex 11"),
    "K3 part too large": ("K3", complete_multipartite(5, 4, 3), SPACE_5_OF_12),
    "K2,2,2 part too large": ("K2,2,2", complete_multipartite(5, 4, 3), SPACE_5_OF_12),
    "K3 equal parts": ("K3", complete_multipartite(4, 4, 4), None),
    "K2,2,2 equal parts": ("K2,2,2", complete_multipartite(4, 4, 4), None),
}


@pytest.mark.parametrize("case", list(BARRIER_CASES))
def test_planted_barriers(case):
    name, host, reason = BARRIER_CASES[case]
    pattern = pattern_from_name(name)
    assert packing.barrier(host, pattern, host.full_mask()) == reason
    got = _decide(find_perfect_packing, host, pattern, None)
    assert got == _decide(reference_perfect_packing, host, pattern, None)
    plain = _decide(_plain(reference_perfect_packing), host, pattern, None)
    assert got[0] == plain[0] and (got[0] is None) == (reason is not None)
    assert (got[0] is not None) == oracle_perfect_decision(host, name)
    if reason is not None:  # the barrier ends the proof early
        assert got[1] < plain[1]


def test_barriers_of_a_vertex_mask():
    # the residual's own degrees and class counts decide, not the host's
    host = complete_multipartite(4, 4, 4)  # parts 0-3, 4-7 and 8-11
    k3, k22 = clique_pattern(3), pattern_from_name("K2,2")
    assert packing.barrier(host, k3, host.full_mask()) is None
    uneven = mask([0, 1, 2, 3, 4, 5, 6, 8, 9])
    assert packing.barrier(host, k3, uneven) == "space, an independent twin class of 4 of 9 vertices"
    star = mask([0, 1, 2, 4])  # 0, 1 and 2 each have one neighbour in it
    assert packing.barrier(host, k22, star) == "local vertex 0"
    for pattern, within in ((k3, uneven), (k22, star)):
        verts = list(bits(within))
        assert perfect_parts_within(host, pattern, within, SearchBudget()) is None
        assert reference_perfect_on_subset(host, pattern, verts) is None


FIXTURES = pathlib.Path(__file__).parent / "fixtures"
# by exhaustion with the memo these took 678,567, 569,999, 1,757,581,
# 637,750 and 283,275 nodes
FRONTIER_NONE = {
    "hs_tight(5, 100)": (lambda: hs_tight_instance(5, 100), "K5", 20),
    "hs_tight(6, 72)": (lambda: hs_tight_instance(6, 72), "K6", 12),
    "hs_tight(7, 70)": (lambda: hs_tight_instance(7, 70), "K7", 10),
    "K2,2 s7": (lambda: load_graph(str(FIXTURES / "frontier_k22_n24_margin_s7.txt")), "K2,2", 4),
    "K2,2 s13": (lambda: load_graph(str(FIXTURES / "frontier_k22_n24_margin_s13.txt")), "K2,2", 3),
}


@pytest.mark.parametrize("row", list(FRONTIER_NONE))
def test_frontier_none_proofs_end_at_a_barrier(row):
    # a budget one node short of the proof is still exhausted
    build, name, nodes = FRONTIER_NONE[row]
    host, pattern = build(), pattern_from_name(name)
    budget = SearchBudget(100)
    assert find_perfect_packing(host, pattern, budget) is None and budget.nodes == nodes
    with pytest.raises(BudgetExhausted):
        find_perfect_packing(host, pattern, SearchBudget(nodes - 1))
