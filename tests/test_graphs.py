import math
import random
from enum import IntEnum

import pytest

from tilinglab.graphs import (
    Digraph,
    Graph,
    GraphFormatError,
    PatternGraph,
    bits,
    blow_up,
    degree_sequence,
    dominant_rows,
    format_edge_list,
    graph_from_json,
    graph_to_json,
    mask,
    parse_edge_list,
    symmetrize,
)
from tilinglab.constructions import (
    complete_graph,
    complete_multipartite,
    pattern_from_name,
    transitive_tournament,
)

from oracles import reference_rows, sample_digraph, sample_gnp

PETERSEN = Graph(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
)


def test_mask_and_bits_are_inverse():
    """A mask read back by `bits` and rebuilt by `mask` is itself, and
    vertices made a mask come back sorted without repeats; the empty set
    is the mask 0."""
    rng = random.Random("mask-bits")
    for _ in range(200):
        m = rng.getrandbits(rng.randrange(130))
        assert mask(bits(m)) == m
        vs = [rng.randrange(130) for _ in range(rng.randrange(12))]
        assert list(bits(mask(vs))) == sorted(set(vs))
    assert mask([]) == 0 and list(bits(0)) == []


def test_bits_refuses_a_negative_mask():
    # a negative int has infinitely many set bits: refused at the first step
    for m in (-1, -2, -(1 << 70)):
        with pytest.raises(ValueError, match=f"negative vertex mask {m}"):
            next(bits(m))


def test_construction_validation():
    with pytest.raises(GraphFormatError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphFormatError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphFormatError):
        Digraph(2, [(1, 1)])
    for n in (True, 2.0, "3", None, -1, 10**30):
        with pytest.raises(GraphFormatError):
            Graph(n)
        with pytest.raises(GraphFormatError):
            Digraph(n)
    # parallel edges collapse under set semantics
    g = Graph(3, [(0, 1), (1, 0)])
    assert g.edge_count() == 1
    d = Digraph(3, [(0, 1), (1, 0)])
    assert d.edge_count() == 2  # antiparallel pair is two arcs


def test_degree_sequence_examples():
    assert degree_sequence(complete_graph(3)) == [2, 2, 2]
    assert degree_sequence(Graph(3, [(0, 1), (1, 2)])) == [1, 1, 2]


def test_dominant_degree_examples():
    d = Digraph(2, [(0, 1)])
    assert degree_sequence(d) == [1, 1]
    rows = dominant_rows(d)
    assert rows[0] == d.out[0] and rows[1] == d.inn[1] != d.out[1]

    t3 = transitive_tournament(3)
    assert t3.out[0].bit_count() == 2 and t3.inn[0].bit_count() == 0
    assert dominant_rows(t3)[0] == t3.out[0] and t3.out[0].bit_count() == 2

    k3 = symmetrize(complete_graph(3))
    assert degree_sequence(k3) == [2, 2, 2]
    assert dominant_rows(k3) == list(k3.out)  # ties resolve OUT

    # a tie between different rows: vertex 0 sends one arc and receives one
    c3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert dominant_rows(c3) == list(c3.out) != list(c3.inn)


def test_dominant_rows_invariant():
    rng = random.Random(4)
    for _ in range(30):
        d = sample_digraph(rng, rng.randint(2, 12), rng.random())
        rows = dominant_rows(d)
        assert sorted(row.bit_count() for row in rows) == degree_sequence(d)
        for v, row in enumerate(rows):
            d_plus, d_minus = d.out_degree(v), d.in_degree(v)
            assert row.bit_count() == max(d_plus, d_minus)
            if d_plus >= d_minus:  # OUT, ties included
                assert row == d.out[v]
            else:  # IN only when d- > d+
                assert row == d.inn[v]


def test_blow_up_examples():
    assert blow_up(complete_graph(2), 2) == complete_multipartite(2, 2)
    d = Digraph(2, [(0, 1), (1, 0), (0, 1)])  # d* sequence [1, 1]
    d = Digraph(3, [(0, 1), (1, 2), (0, 2), (2, 1)])
    seq = degree_sequence(d)
    blown = degree_sequence(blow_up(d, 3))
    assert blown == sorted(3 * seq[(j - 1) // 3] for j in range(1, 10))
    g = sample_gnp(random.Random(1), 7, 0.5)
    assert blow_up(g, 1) == g


@pytest.mark.parametrize("t", [2, 3, 5])
def test_blow_up_scaling_identity(t):
    rng = random.Random(t)
    for _ in range(10):
        g = sample_gnp(rng, rng.randint(2, 30), rng.random())
        base = degree_sequence(g)
        blown = degree_sequence(blow_up(g, t))
        assert blown == [t * base[(j - 1) // t] for j in range(1, g.n * t + 1)]
        d = sample_digraph(rng, rng.randint(2, 30), rng.random())
        dbase = degree_sequence(d)
        dblown = degree_sequence(blow_up(d, t))
        assert dblown == [t * dbase[(j - 1) // t] for j in range(1, d.n * t + 1)]


def test_blow_up_block_layout():
    g = Graph(2, [(0, 1)])
    b = blow_up(g, 3)
    # block of vertex 1 is 3..5; no edges inside blocks
    assert not b.has_edge(0, 1) and not b.has_edge(3, 4)
    assert all(b.has_edge(u, v) for u in (0, 1, 2) for v in (3, 4, 5))


def test_symmetrize():
    assert symmetrize(complete_graph(3)).edge_count() == 6
    assert symmetrize(Graph(4, [])).edge_count() == 0
    rng = random.Random(9)
    for _ in range(20):
        g = sample_gnp(rng, rng.randint(1, 20), rng.random())
        assert degree_sequence(symmetrize(g)) == degree_sequence(g)


def test_json_round_trip():
    g = sample_gnp(random.Random(2), 9, 0.4)
    assert graph_from_json(graph_to_json(g)) == g
    d = sample_digraph(random.Random(3), 7, 0.4)
    assert graph_from_json(graph_to_json(d)) == d


def test_edge_list_round_trip():
    g = sample_gnp(random.Random(5), 8, 0.5)
    assert parse_edge_list(format_edge_list(g)) == g
    d = sample_digraph(random.Random(6), 6, 0.5)
    assert parse_edge_list(format_edge_list(d)) == d


def test_parsers_reject_bad_input():
    with pytest.raises(GraphFormatError):
        graph_from_json('{"kind": "graph", "n": 3, "edges": [[0, 0]]}')
    with pytest.raises(GraphFormatError):
        graph_from_json('{"kind": "graph", "n": 3, "edges": [[0, 7]]}')
    with pytest.raises(GraphFormatError):
        graph_from_json('{"kind": "blob", "n": 3, "edges": []}')
    for n in ("true", "2.5", '"3"', "-1", "null"):
        with pytest.raises(GraphFormatError):
            graph_from_json(f'{{"kind": "graph", "n": {n}, "edges": []}}')
    with pytest.raises(GraphFormatError):
        graph_from_json('{"kind": "digraph", "edges": []}')
    with pytest.raises(GraphFormatError):
        graph_from_json("not json")
    with pytest.raises(GraphFormatError):
        parse_edge_list("3 1 graph\n0 0\n")
    with pytest.raises(GraphFormatError):
        parse_edge_list("3 2 graph\n0 1\n")
    with pytest.raises(GraphFormatError):
        parse_edge_list("3 1 digraph\n0 9\n")


def assert_built_like(got, want):
    """``got``, a derived graph, equals ``want``, the validating
    constructor's build, in every stored row; the rows are tuples."""
    assert type(got) is type(want) and got == want and hash(got) == hash(want)
    rows = (got.out, got.inn) if isinstance(got, Digraph) else (got.adj,)
    # __eq__ reads only the forward rows, so the backward ones are checked here
    assert rows == ((want.out, want.inn) if isinstance(want, Digraph) else (want.adj,))
    assert all(type(row) is tuple for row in rows)


def test_rows_match_raw_pairs():
    # the rows are the only stored adjacency: every query, the derived pair
    # sets, equality, I/O and derived graphs agree with pair sets built here
    # from the raw input, which repeats pairs and gives edges both ways
    rng = random.Random("rows-vs-raw-pairs")
    for trial in range(60):
        directed = trial % 2 == 1
        cls = Digraph if directed else Graph
        n = rng.randint(0, 9)
        raw = []
        for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
            u, v = rng.sample(range(n), 2)
            raw += [(u, v)] * rng.randint(1, 2) + [(v, u)] * (rng.random() < 0.3)
        want = set(raw) if directed else {(min(p), max(p)) for p in raw}
        g = cls(n, raw)
        has = g.has_arc if directed else g.has_edge
        for u in range(n):
            for v in range(n):
                pair = (u, v) if directed else (min(u, v), max(u, v))
                assert has(u, v) == (pair in want)
        assert (g.arcs if directed else g.edges) == want
        assert g.pairs() == sorted(want) and g.edge_count() == len(want)
        assert directed or not hasattr(g, "arcs")

        shuffled = [(v, u) if not directed and rng.random() < 0.5 else (u, v) for u, v in raw]
        rng.shuffle(shuffled)
        same = cls(n, shuffled)
        assert same == g and hash(same) == hash(g)
        if want:
            assert cls(n, sorted(want)[1:]) != g
        assert cls(n + 1, raw) != g and Digraph(n, raw) != Graph(n, raw)
        assert graph_from_json(graph_to_json(g)) == g
        assert parse_edge_list(format_edge_list(g)) == g

        keep = sorted(rng.sample(range(n), rng.randint(0, n)))
        sub, ids = g.induced(keep)
        pos = {v: i for i, v in enumerate(keep)}
        assert ids == keep and sub.n == len(keep)
        sub_pairs = {(pos[u], pos[v]) for u, v in want if u in pos and v in pos}
        assert set(sub.pairs()) == sub_pairs
        assert_built_like(sub, cls(len(keep), sub_pairs))
        t = rng.randint(1, 3)
        blown = blow_up(g, t)
        assert type(blown) is cls and blown.n == n * t
        blown_pairs = {
            (u * t + a, v * t + b) for u, v in want for a in range(t) for b in range(t)
        }
        assert set(blown.pairs()) == blown_pairs
        assert_built_like(blown, cls(n * t, blown_pairs))
        if not directed:
            sym = symmetrize(g)
            assert set(sym.pairs()) == want | {(v, u) for u, v in want}
            assert_built_like(sym, Digraph(n, raw + [(v, u) for u, v in raw]))


def test_induced_matches_edge_filter():
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randint(1, 12)
        for host in (sample_gnp(rng, n, 0.5), sample_digraph(rng, n, 0.4)):
            directed = isinstance(host, Digraph)
            pairs = host.arcs if directed else host.edges
            unsorted = [rng.randrange(n) for _ in range(rng.randint(0, 2 * n))]
            lo = rng.randrange(n)
            keep_sets = (
                unsorted,  # repeats, any order
                [],
                [rng.randrange(n)],
                range(lo, rng.randint(lo, n)),  # contiguous
                range(n),  # full
                range(rng.randrange(2), n, 2),  # gapped
                [v for v in range(n) if rng.random() < 0.5],  # runs of any length
            )
            for chosen in keep_sets:
                sub, mapping = host.induced(chosen)
                vs = sorted(set(chosen))
                assert mapping == vs and sub.n == len(vs)
                assert type(sub) is type(host)
                pos = {v: i for i, v in enumerate(vs)}
                want = {(pos[u], pos[v]) for u, v in pairs if u in pos and v in pos}
                assert (sub.arcs if directed else sub.edges) == want
                assert directed or not hasattr(sub, "arcs")
                assert_built_like(sub, type(host)(len(vs), want))
            assert host.induced(range(n))[0] == host


def test_sampled_rows_match_constructor():
    # the experiment sampler decides each pair as one rng.random() < p
    # would: the pairs drawn here from an identically seeded stream, fed to
    # the constructor, agree, and both streams end in the same state.  The
    # sampler decides most pairs on the draw's top byte, floor(random() *
    # 256); a draw whose top byte is that of ceil(p * 2**53) is a tie,
    # decided on the full draw, and ties of both outcomes occur here
    from tilinglab.cli import _sample

    ties = {False: 0, True: 0}
    for kind, big in ((Graph, 24), (Digraph, 15)):
        directed = kind is Digraph
        cases = [(n, p) for n in range(9) for p in (0.0, 0.3, 0.7, 1.0)]
        cases += [(big, p) for p in (0.0, 0.7, 0.75, 0.8, 0.98, 1.0)]
        for n, p in cases:
            top = math.ceil(p * 2**53) >> 45
            for seed in range(12):
                ours, theirs = random.Random(seed), random.Random(seed)
                got = _sample(ours, kind, n, p)
                pairs = []
                for i in range(n):
                    for j in range(0 if directed else i + 1, n):
                        if i == j:
                            continue
                        x = theirs.random()
                        if int(x * 256) == top:
                            ties[x < p] += 1
                        if x < p:
                            pairs.append((i, j))
                assert_built_like(got, kind(n, pairs))
                assert ours.getstate() == theirs.getstate()
    assert ties[False] and ties[True], ties


Vertex = IntEnum("Vertex", [(f"V{i}", i) for i in range(12)])


def _rows_or_message(build):
    """What ``build`` returns, or the message of its GraphFormatError."""
    try:
        return build()
    except GraphFormatError as exc:
        return str(exc)


def test_pair_checks_match_reference():
    # the constructors' inline pair test, with its fall-back to the full
    # checks, builds the same rows and raises the same message as checking
    # every pair in full; one or two pairs of a seeded list are corrupted
    rng = random.Random("inline-pair-test")
    for trial in range(40):
        cls = (Graph, Digraph)[trial % 2]
        n = rng.randint(2, 12)
        pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 3 * n))]

        def same_as_reference(pairs):
            def rows():
                g = cls(n, pairs)
                return (g.adj,) if cls is Graph else (g.out, g.inn)

            got = _rows_or_message(rows)
            assert got == _rows_or_message(lambda: reference_rows(cls, n, pairs))
            return got

        clean = same_as_reference(pairs)
        assert not isinstance(clean, str)

        def corrupt(pair, bad):
            u, v = pair
            if bad == "loop":
                return u, u
            if bad == "enum":  # an int subclass with the same value
                return Vertex(u), Vertex(v)
            if bad == "both":  # the first end is reported
                return rng.choice([True, "1", -1, n]), rng.choice([1.0, None, -1, n])
            side = rng.randrange(2)
            bad = n if bad == "n" else bad
            return (bad, v) if side == 0 else (u, bad)

        for bad in (True, 1.0, "1", None, -1, "n", "loop", "enum", "both"):
            hit = list(pairs)
            i = rng.randrange(len(hit))
            hit[i] = corrupt(hit[i], bad)
            got = same_as_reference(hit)
            assert got == clean if bad == "enum" else isinstance(got, str)

        if len(pairs) >= 2:
            i, j = sorted(rng.sample(range(len(pairs)), 2))
            first, second = rng.sample([True, 1.0, "1", None, -1, "n", "loop"], 2)
            hit = list(pairs)
            hit[i], hit[j] = corrupt(hit[i], first), corrupt(hit[j], second)
            assert same_as_reference(hit) == same_as_reference(hit[: i + 1])


def _is_automorphism(base, perm) -> bool:
    if isinstance(base, Digraph):
        return {(perm[u], perm[v]) for u, v in base.arcs} == base.arcs
    return {tuple(sorted((perm[u], perm[v]))) for u, v in base.edges} == base.edges


@pytest.mark.parametrize(
    "pattern",
    [
        pattern_from_name("K2,2,2"),
        pattern_from_name("K2,3,2"),
        pattern_from_name("K1,3"),
        pattern_from_name("T3^2"),
        PatternGraph(Graph(3), name="E3"),
        PatternGraph(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]), name="C5"),
        PatternGraph(PETERSEN, name="Petersen"),
        PatternGraph(Digraph(4, [(0, 1), (1, 0), (0, 2), (1, 2), (2, 3)]), name="D4"),
        # 0 and 1 agree everywhere but on the one-way arc 0 -> 1: not twins
        PatternGraph(Digraph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]), name="D4-one-way"),
        # two independent pairs joined one way: equal classes that do not swap
        PatternGraph(blow_up(Digraph(2, [(0, 1)]), 2), name="T2^2"),
    ],
    ids=lambda pat: pat.name,
)
def test_twin_classes_match_automorphisms(pattern):
    base = pattern.base
    tw = pattern.twin_classes()
    assert pattern.twin_classes() is tw  # built once per pattern
    assert sorted(v for c in tw.classes for v in c) == list(range(base.n))
    home = {v: i for i, c in enumerate(tw.classes) for v in c}
    for u in range(base.n):
        for v in range(u + 1, base.n):
            swap = list(range(base.n))
            swap[u], swap[v] = v, u
            assert _is_automorphism(base, swap) == (home[u] == home[v])
    has = base.has_arc if isinstance(base, Digraph) else base.has_edge
    for i, a in enumerate(tw.classes):
        for j, b in enumerate(tw.classes):
            p, q = a[0], b[-1]
            assert tw.need[i][j] == (has(p, q) if p != q else 0) | (has(q, p) if p != q else 0) << 1
    grouped = {(i, j) for a, b in tw.groups for i in range(a, b) for j in range(a, b)}
    for i, a in enumerate(tw.classes):
        for j, b in enumerate(tw.classes):
            if i < j and len(a) == len(b):
                swap = list(range(base.n))
                for x, y in zip(a, b):
                    swap[x], swap[y] = y, x
                assert _is_automorphism(base, swap) == ((i, j) in grouped)


def test_twin_classes_examples():
    k222 = pattern_from_name("K2,2,2").twin_classes()
    assert k222.classes == ((0, 1), (2, 3), (4, 5)) and k222.groups == ((0, 3),)
    assert k222.need == ((0, 3, 3), (3, 0, 3), (3, 3, 0))
    t32 = pattern_from_name("T3^2").twin_classes()
    assert t32.classes == ((0, 1), (2, 3), (4, 5)) and t32.groups == ()
    assert t32.need == ((0, 1, 1), (2, 0, 1), (2, 2, 0))
    d4 = PatternGraph(Digraph(4, [(0, 1), (1, 0), (0, 2), (1, 2), (2, 3)])).twin_classes()
    assert d4.classes == ((0, 1), (2,), (3,)) and d4.need[0][0] == 3
