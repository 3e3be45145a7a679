import random
from fractions import Fraction

import pytest

from tilinglab.constructions import (
    complete_graph,
    transitive_pattern,
    transitive_tournament,
)
from tilinglab.degseq import check_dominant_margin
from tilinglab.exchange import (
    blowup_iterate,
    convert_to_blowup_packing,
    extend_mixed,
    greedy_transitive,
    index_bijection,
    swap_improve,
    swap_to_fixpoint,
    trace_to_csv,
)
from tilinglab.graphs import Digraph, degree_sequence, dominant_rows, symmetrize
from tilinglab.packing import (
    Packing,
    greedy_packing,
    is_perfect_packing,
    spans_pattern,
    verify_parts,
)

from oracles import sample_digraph, sample_gnp, sample_tournament


def swap_instance():
    """Six vertices: greedy takes {0,1,2}; then 3 (lower rank) can replace
    2 (higher rank) because 3 dominates {0,1}; no other exchange exists."""
    return Digraph(6, [(0, 1), (0, 2), (1, 2), (3, 0), (3, 1), (2, 3), (2, 4), (2, 5)])


def upgrade_instance():
    """n=24 meeting the dominant margin at gamma=1/12 where index-order
    greedy stalls at 21 covered: the last three vertices only form a cyclic
    triangle among themselves, but each dominates the whole ground set."""
    arcs = []
    for i in range(21):
        for j in range(i + 1, 21):
            arcs += [(i, j), (j, i)]
    arcs += [(21, 22), (22, 23), (23, 21)]
    for x in (21, 22, 23):
        for v in range(21):
            arcs.append((x, v))
    return Digraph(24, arcs)


def test_greedy_transitive_examples():
    cc = greedy_transitive(symmetrize(complete_graph(3)), 3)
    assert cc is not None and len(cc.vertices) == 3
    assert cc.verify(symmetrize(complete_graph(3)))

    # inside T_4 with a relaxed threshold a consistent T_3 is found
    cc = greedy_transitive(transitive_tournament(4), 3, threshold=Fraction(2))
    assert cc is not None
    assert spans_pattern(transitive_tournament(4), cc.vertices, transitive_pattern(3))
    assert cc.verify(transitive_tournament(4))


def test_greedy_transitive_guarantee():
    rng = random.Random(5)
    done = 0
    while done < 40:
        g = sample_gnp(rng, 30, 0.78)
        d = symmetrize(g)
        seq = degree_sequence(d)
        if seq[9] < 20:  # hypothesis: the ceil(n/r)-th smallest reaches (1-1/r)n
            continue
        cc = greedy_transitive(d, 3)
        assert cc is not None
        assert spans_pattern(d, cc.vertices, transitive_pattern(3)) is not None
        assert cc.verify(d)
        done += 1


def test_greedy_transitive_can_fail_without_hypothesis():
    cyc = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert greedy_transitive(cyc, 3) is None


def test_index_bijection_laws():
    d = Digraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    I = index_bijection(d)
    seq = degree_sequence(d)
    for v, row in enumerate(dominant_rows(d)):
        assert seq[I[v] - 1] == row.bit_count()
    # regular digraph: identity by the tie rule
    cyc = Digraph(5, [(i, (i + 1) % 5) for i in range(5)])
    I = index_bijection(cyc)
    assert [I[v] for v in range(5)] == [1, 2, 3, 4, 5]
    # monotone law
    rng = random.Random(2)
    for _ in range(20):
        d = Digraph(
            8,
            [
                (i, j)
                for i in range(8)
                for j in range(8)
                if i != j and rng.random() < 0.4
            ],
        )
        I = index_bijection(d)
        deg = [row.bit_count() for row in dominant_rows(d)]
        for x in range(8):
            for y in range(8):
                if I[x] < I[y]:
                    assert deg[x] <= deg[y]


def test_swap_instance_exact_behaviour():
    d = swap_instance()
    I = index_bijection(d)
    assert I[3] < I[2]
    m = greedy_packing(d, transitive_pattern(3))
    assert m.parts == ((0, 1, 2),)
    swapped = swap_improve(d, 3, m, I)
    assert swapped is not None and swapped.parts == ((0, 1, 3),)
    assert swapped.coverage() == m.coverage()
    assert swap_improve(d, 3, swapped, I) is None

    # exhaustive exchange enumeration confirms this is the only move
    moves = []
    covered = m.covered_mask()
    for x in range(6):
        if covered >> x & 1:
            continue
        xmask = dominant_rows(d)[x]
        for part in m.parts:
            for y in part:
                if I[y] <= I[x]:
                    continue
                rest = [u for u in part if u != y]
                if all(xmask >> u & 1 for u in rest):
                    moves.append((x, y))
    assert moves == [(3, 2)]


def test_swap_rejects_bad_packing():
    d = swap_instance()
    I = index_bijection(d)
    bogus = Packing.uniform(6, [(3, 4, 5)], transitive_pattern(3))
    with pytest.raises(ValueError):
        swap_improve(d, 3, bogus, I)
    with pytest.raises(ValueError, match="fails verification"):
        swap_to_fixpoint(d, 3, bogus)
    with pytest.raises(ValueError, match="wrong order"):
        swap_to_fixpoint(d, 3, Packing.uniform(6, [(0, 1)], transitive_pattern(2)))


def test_swap_fuzz_invariants():
    rng = random.Random(33)
    for _ in range(100):
        d = sample_tournament(rng, rng.randint(6, 10))
        I = index_bijection(d)
        m = greedy_packing(d, transitive_pattern(3))
        start = m
        weight = I.uncovered_weight(m.covered_mask(), d.n)
        steps = 0
        while True:
            nxt = swap_improve(d, 3, m, I)
            if nxt is None:
                break
            assert nxt.coverage() == m.coverage()
            new_weight = I.uncovered_weight(nxt.covered_mask(), d.n)
            assert new_weight > weight
            assert verify_parts(d, nxt).ok
            m, weight = nxt, new_weight
            steps += 1
            assert steps <= d.n * d.n
        # the loop checks its input once and then steps unchecked: same result
        assert swap_to_fixpoint(d, 3, start) == (m, steps)


@pytest.mark.parametrize("r, n, p", [(2, 12, 0.3), (3, 15, 0.5), (3, 18, 0.35), (4, 16, 0.7)])
def test_swap_to_fixpoint_ignores_empty_rows(r, n, p):
    """Vertices with fewer than r-1 dominant neighbours are never tried as
    incoming vertices, which changes nothing: a host with some rows emptied
    gives, ids mapped, the packing and step count of its induced copy on
    the other vertices, and with isolated vertices added the same holds."""
    rng = random.Random(f"empty-rows:{r}:{n}")
    tr = transitive_pattern(r)
    steps_seen = 0
    for _ in range(25):
        d = sample_digraph(rng, n, p)
        kept = sorted(rng.sample(range(n), rng.randrange(r, n + 1)))
        within = sum(1 << v for v in kept)
        cut = [[row & within if within >> v & 1 else 0 for v, row in enumerate(rows)]
               for rows in (d.out, d.inn)]
        sub, mapping = d.induced(kept)
        # the same arcs spread over more vertices, the new ones isolated
        ids = sorted(rng.sample(range(n + 5), n))
        spread = Digraph(n + 5, [(ids[u], ids[v]) for u, v in d.arcs])
        for host, big, to_big in ((sub, Digraph._from_rows(n, *cut), mapping),
                                  (d, spread, ids)):
            m = greedy_packing(host, tr)
            got, steps = swap_to_fixpoint(
                big, r, Packing.uniform(big.n, [[to_big[v] for v in part] for part in m.parts], tr))
            want, want_steps = swap_to_fixpoint(host, r, m)
            assert steps == want_steps
            assert got == Packing.uniform(
                big.n, [[to_big[v] for v in part] for part in want.parts], tr)
            steps_seen += steps
    assert steps_seen


def test_swap_at_order_one_takes_an_isolated_vertex():
    # T1 spans any vertex, so an uncovered vertex of lower rank than a
    # covered one swaps in even when its dominant row is empty
    d = Digraph(3, [(1, 2)])
    I = index_bijection(d)
    assert I[0] < I[1] < I[2] and not dominant_rows(d)[0]
    m = Packing.uniform(3, [(2,)], transitive_pattern(1))
    assert swap_to_fixpoint(d, 1, m) == (Packing.uniform(3, [(0,)], transitive_pattern(1)), 1)


def test_extend_examples():
    t4 = transitive_tournament(4)
    m = Packing.uniform(4, [(0, 1, 2)], transitive_pattern(3))
    up = extend_mixed(t4, 3, m, 0)
    assert up is not None and up.coverage() == 4
    assert [p.name for p in up.patterns] == ["T4"]

    # nobody meets the threshold: the lone uncovered vertex sees one arc
    arcs = list(symmetrize(complete_graph(6)).arcs) + [(6, 0)]
    d = Digraph(7, arcs)
    m = Packing.uniform(7, [(0, 1, 2), (3, 4, 5)], transitive_pattern(3))
    assert extend_mixed(d, 3, m, 0) is None


def test_extend_on_dense_tournaments():
    rng = random.Random(61)
    for _ in range(20):
        d = sample_tournament(rng, 15)
        m = greedy_packing(d, transitive_pattern(3))
        up = extend_mixed(d, 3, m, 0)
        if up is not None:
            assert verify_parts(d, up).ok
            upgrades = sum(1 for p in up.parts if len(p) == 4)
            assert up.coverage() == m.coverage() + upgrades


def test_expand_on_complete_symmetric():
    res = blowup_iterate(symmetrize(complete_graph(9)), 3, 0, Fraction(1, 12))
    assert res.packing.coverage() == 9
    assert res.trace[0].covered == 9


def test_expand_trace_nondecreasing():
    rng = random.Random(91)
    for _ in range(25):
        d = sample_tournament(rng, rng.randint(6, 12))
        res = blowup_iterate(d, 3, 0, Fraction(1, 20))
        covs = [row.covered for row in res.trace]
        assert covs == sorted(covs)
        assert verify_parts(d, res.packing).ok


def test_upgrade_instance_end_to_end():
    d = upgrade_instance()
    assert check_dominant_margin(d, 3, Fraction(1, 12)).satisfied
    seed = greedy_packing(d, transitive_pattern(3))
    assert seed.coverage() == 21
    res = blowup_iterate(d, 3, 0, Fraction(1, 12), seed_policy="greedy")
    assert res.trace[0].covered == 21
    assert res.packing.coverage() > res.trace[0].covered
    assert res.packing.coverage() == 24
    assert verify_parts(d, res.packing).ok


def test_trace_csv_format():
    res = blowup_iterate(symmetrize(complete_graph(6)), 3, 0, 0)
    text = trace_to_csv(res.trace)
    lines = text.strip().split("\n")
    assert lines[0] == "round,phase,covered,n,proportion"
    assert lines[1].endswith("1.000000")


def test_convert_blowup_packing():
    # one T_4 copy blown by 3 becomes four T_3 copies covering all 12
    t4 = transitive_tournament(4)
    m = Packing.uniform(4, [(0, 1, 2, 3)], transitive_pattern(4))
    blown, conv = convert_to_blowup_packing(t4, m, 3)
    assert blown.n == 12
    assert len(conv.parts) == 4 and conv.coverage() == 12
    assert is_perfect_packing(blown, conv).ok


def test_convert_preserves_coverage_ratio():
    rng = random.Random(14)
    for _ in range(10):
        d = sample_tournament(rng, 9)
        m = greedy_packing(d, transitive_pattern(3))
        up = extend_mixed(d, 3, m, 0) or m
        blown, conv = convert_to_blowup_packing(d, up, 3)
        assert conv.coverage() == up.coverage() * 3
        assert blown.n == d.n * 3


def test_blowup_iterate_z0_equals_expand():
    # z = 0 runs round 0 alone: the same rows as round 0 of a longer run
    # (five of these six hosts run blow-up rounds at z = 2)
    rng = random.Random(3)
    for _ in range(6):
        d = sample_digraph(rng, 11, 0.45)
        a = blowup_iterate(d, 3, 0, Fraction(1, 20))
        b = blowup_iterate(d, 3, 2, Fraction(1, 20))
        assert a.trace == [row for row in b.trace if row.round == 0]
        assert a.proportions == b.proportions[:1]
        assert a.packing.coverage() == a.trace[-1].covered
        assert a.digraph is d


def test_blowup_iterate_proportions_nondecreasing():
    rng = random.Random(27)
    for _ in range(8):
        d = sample_tournament(rng, rng.choice((7, 8, 10, 11)))
        res = blowup_iterate(d, 3, 2, Fraction(1, 20))
        props = res.proportions
        assert all(props[i] <= props[i + 1] for i in range(len(props) - 1))
        assert verify_parts(res.digraph, res.packing).ok


def test_expand_budget_exhaustion_flagged():
    from tilinglab.packing import SearchBudget

    d = symmetrize(complete_graph(9))
    res = blowup_iterate(d, 3, 0, 0, budget=SearchBudget(1), seed_policy="max")
    assert res.seed_optimal is False
    assert verify_parts(d, res.packing).ok
