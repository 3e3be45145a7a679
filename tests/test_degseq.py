import random
from dataclasses import fields
from fractions import Fraction

import pytest

from tilinglab.constructions import (
    ExtremalParams,
    complete_graph,
    complete_multipartite,
    extremal_instance,
    transitive_tournament,
)
from tilinglab.degseq import (
    DegreeCondition,
    check_baseline,
    check_baselines,
    check_dominant_margin,
    check_exact_sequence,
    check_margin_sequence,
    evaluate,
)
from tilinglab.graphs import Digraph, Graph, degree_sequence, symmetrize

from oracles import reference_ore, sample_gnp


def direct_margin_scan(g, r, gamma):
    """Independent re-scan: first 1-based index violating the margin bound."""
    seq = degree_sequence(g)
    n = g.n
    for i in range(1, n + 1):
        if Fraction(i) >= Fraction(n, r):
            break
        if Fraction(seq[i - 1]) < Fraction((r - 2) * n, r) + i + gamma * n:
            return i
    return None


def test_exact_examples():
    assert check_exact_sequence(complete_graph(6), 3).satisfied
    rep = check_exact_sequence(complete_multipartite(3, 3), 3)
    assert not rep.satisfied
    assert "(b)" in rep.detail
    assert rep.first_violating_index == 3  # index n/r + 1


def test_exact_requires_divisibility():
    with pytest.raises(ValueError, match="divide"):
        check_exact_sequence(complete_graph(7), 3)


def test_margin_examples():
    # complete graph satisfies the margin up to 1/r - 2/n
    n, r = 12, 3
    gamma = Fraction(1, r) - Fraction(2, n)
    assert check_margin_sequence(complete_graph(n), r, gamma).satisfied

    rep = check_margin_sequence(Graph(10, []), 2, Fraction(1, 10))
    assert not rep.satisfied and rep.first_violating_index == 1


def test_margin_matches_direct_scan():
    rng = random.Random(17)
    for _ in range(40):
        g = sample_gnp(rng, 24, 0.9)
        gamma = Fraction(rng.randint(0, 10), 100)
        rep = check_margin_sequence(g, 3, gamma)
        assert rep.first_violating_index == direct_margin_scan(g, 3, gamma)
        assert rep.satisfied == (rep.first_violating_index is None)


def test_dominant_examples():
    rep = check_dominant_margin(symmetrize(complete_graph(9)), 3, Fraction(1, 20))
    assert rep.satisfied

    rep = check_dominant_margin(transitive_tournament(3), 3, 0)
    assert rep.satisfied and rep.vacuous  # n/r = 1 leaves no index to check


def test_dominant_equals_graph_check_on_symmetrized():
    rng = random.Random(31)
    for _ in range(25):
        g = sample_gnp(rng, rng.randint(4, 20), rng.random())
        gamma = Fraction(rng.randint(0, 15), 100)
        a = check_margin_sequence(g, 3, gamma)
        b = check_dominant_margin(symmetrize(g), 3, gamma)
        assert a.satisfied == b.satisfied
        assert a.first_violating_index == b.first_violating_index
        assert a.slack_profile == b.slack_profile


def test_baseline_examples():
    reps = check_baselines(complete_graph(6), 3)
    assert all(r.satisfied for r in reps.values())

    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert not check_baselines(c5, 2)["hajnal-szemeredi"].satisfied


def test_hs_implies_alpha():
    rng = random.Random(55)
    hits = 0
    for _ in range(200):
        n = rng.choice((6, 9, 12))
        g = sample_gnp(rng, n, rng.uniform(0.5, 1.0))
        if check_baselines(g, 3)["hajnal-szemeredi"].satisfied:
            hits += 1
            rep = check_margin_sequence(g, 3, 0)
            assert rep.satisfied
    assert hits > 5


def test_exact_implies_margin_zero():
    rng = random.Random(77)
    hits = 0
    for _ in range(300):
        g = sample_gnp(rng, 9, rng.uniform(0.6, 1.0))
        rep = check_exact_sequence(g, 3)
        if rep.satisfied:
            hits += 1
            assert check_margin_sequence(g, 3, 0).satisfied
    assert hits > 5


def test_monotone_under_edge_addition():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(4, 14)
        g = sample_gnp(rng, n, rng.random())
        non_edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not g.has_edge(u, v)
        ]
        if not non_edges:
            continue
        extra = rng.choice(non_edges)
        bigger = Graph(n, list(g.edges) + [extra])
        gamma = Fraction(rng.randint(0, 10), 100)
        for r in (2, 3):
            if check_margin_sequence(g, r, gamma).satisfied:
                assert check_margin_sequence(bigger, r, gamma).satisfied
            base = check_baselines(g, r, gamma)
            base2 = check_baselines(bigger, r, gamma)
            for name in base:
                if base[name].satisfied:
                    assert base2[name].satisfied, name


def test_relabeling_invariance():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(4, 12)
        g = sample_gnp(rng, n, rng.random())
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
        for r in (2, 3):
            a = check_margin_sequence(g, r, Fraction(1, 20))
            b = check_margin_sequence(h, r, Fraction(1, 20))
            assert (a.satisfied, a.first_violating_index, a.slack_profile) == (
                b.satisfied,
                b.first_violating_index,
                b.slack_profile,
            )


def test_extremal_instance_conditions():
    # the n=144 instance satisfies both parts with slack >= C = 1 everywhere;
    # at desk n=36 the same construction caps V_2 degrees too low for the
    # full index range, so only the prefix of the profile stays positive
    inst = extremal_instance(
        ExtremalParams(3, (2, 2, 2), 144, 1, star_sizes=(6, 6, 6, 6, 6, 6, 5, 4, 3, 2, 2))
    )
    rep = check_exact_sequence(inst.graph, 3)
    assert rep.satisfied
    assert rep.slack_min >= 1

    desk = extremal_instance(ExtremalParams(3, (2, 2, 2), 36, 1))
    rep36 = check_exact_sequence(desk.graph, 3)
    assert not rep36.satisfied
    assert rep36.first_violating_index == 10
    assert all(s > 0 for s in rep36.slack_profile[:8])


def test_report_serialization():
    rep = check_margin_sequence(complete_graph(6), 3, 0)
    obj = rep.to_json_obj()
    assert set(obj) >= {"name", "satisfied", "first_violating_index", "slack_min"}
    assert obj["satisfied"] is True


def test_condition_dataclass_validation():
    with pytest.raises(ValueError):
        DegreeCondition("x", 1)
    with pytest.raises(ValueError):
        DegreeCondition("x", 3, Fraction(-1, 2))


def test_beta_literal_at_tiny_n():
    # n = r leaves part (a) vacuous while part (b) reads index 2 literally
    rep = check_exact_sequence(complete_graph(3), 3)
    assert rep.satisfied and rep.vacuous
    lonely = Graph(3, [(0, 1)])
    rep = check_exact_sequence(lonely, 3)
    assert not rep.satisfied and rep.first_violating_index == 2


def test_evaluate_dispatch():
    from tilinglab.degseq import evaluate
    from tilinglab.graphs import symmetrize

    assert evaluate(DegreeCondition("exact", 3), complete_graph(6)).satisfied
    rep = evaluate(
        DegreeCondition("margin", 3, Fraction(1, 20)), complete_graph(12)
    )
    assert rep.satisfied
    rep = evaluate(
        DegreeCondition("dominant-margin", 3, Fraction(1, 20)),
        symmetrize(complete_graph(9)),
    )
    assert rep.satisfied
    assert evaluate(DegreeCondition("posa", 2), complete_graph(6)).satisfied
    with pytest.raises(ValueError, match="unknown condition name 'nope'"):
        evaluate(DegreeCondition("nope", 3), complete_graph(6))
    with pytest.raises(ValueError, match="condition exact needs a graph"):
        evaluate(DegreeCondition("exact", 3), symmetrize(complete_graph(6)))
    with pytest.raises(ValueError, match="condition dominant-margin needs a digraph"):
        evaluate(DegreeCondition("dominant-margin", 3), complete_graph(6))


def test_condition_kind_comes_from_the_name():
    # the name alone selects the checker and the host kind
    assert [f.name for f in fields(DegreeCondition)] == ["name", "r", "gamma"]
    with pytest.raises(TypeError):
        DegreeCondition("exact", 3, Fraction(0), "DOMINANT_DEGREE")
    d = symmetrize(complete_graph(6))
    for name in ("hajnal-szemeredi", "alon-yuster", "ore", "posa", "exact", "margin"):
        with pytest.raises(ValueError, match=f"condition {name} needs a graph"):
            evaluate(DegreeCondition(name, 3), d)
    # the public checkers refuse the wrong host kind as well
    with pytest.raises(ValueError, match="condition exact needs a graph"):
        check_exact_sequence(d, 3)
    with pytest.raises(ValueError, match="condition margin needs a graph"):
        check_margin_sequence(d, 3, 0)
    with pytest.raises(ValueError, match="condition dominant-margin needs a digraph"):
        check_dominant_margin(complete_graph(6), 3, 0)


def test_evaluate_matches_check_baselines():
    from tilinglab.degseq import evaluate

    rng = random.Random(56)
    hosts = [Graph(0), Graph(1), Graph(2), complete_graph(2), complete_graph(7)]
    hosts += [sample_gnp(rng, rng.randint(3, 14), rng.uniform(0.2, 1.0)) for _ in range(40)]
    vacuous = set()
    for g in hosts:
        r = rng.choice((2, 3, 4))
        gamma = rng.choice((Fraction(0), Fraction(1, 20), Fraction(1, 7)))
        reports = check_baselines(g, r, gamma)
        assert list(reports) == ["hajnal-szemeredi", "alon-yuster", "ore", "posa"]
        for name, rep in reports.items():
            assert rep.name == name
            assert evaluate(DegreeCondition(name, r, gamma), g) == rep
            if rep.vacuous:
                vacuous.add(name)
    assert vacuous == {"ore", "posa"}


def test_ore_matches_pairwise_reference():
    # the least degree sum over non-adjacent pairs, taken in integers, gives
    # the report the pair-by-pair Fraction loop gives: satisfied, vacuous,
    # slack and detail
    rng = random.Random(205)
    hosts = [Graph(0), Graph(1), Graph(2), Graph(9), complete_graph(1), complete_graph(2),
             complete_graph(8)]
    hosts += [sample_gnp(rng, rng.randint(2, 30), rng.uniform(0.0, 1.0)) for _ in range(120)]
    hosts += [sample_gnp(random.Random(7), 200, 0.8)]
    outcomes = set()
    for g in hosts:
        for r in (2, 3, 4, 5):
            want = reference_ore(g, r)
            assert check_baseline(g, "ore", r) == want, (g, r)
            outcomes.add((want.vacuous, want.satisfied))
    assert outcomes == {(True, True), (False, True), (False, False)}


def fraction_indexed_fields(seq, r, gamma):
    """The indexed check with every quantity a Fraction, index by index:
    (first violating index, slack profile)."""
    n = len(seq)
    slacks, first_bad = [], None
    for i in range(1, n + 1):
        if Fraction(i) >= Fraction(n, r):
            break
        slack = Fraction(seq[i - 1]) - (Fraction((r - 2) * n, r) + i)
        slacks.append(slack)
        if slack < gamma * n and first_bad is None:
            first_bad = i
    return first_bad, tuple(slacks)


def fraction_posa_fields(seq):
    n = len(seq)
    slacks, first_bad = [], None
    for i in range(1, n + 1):
        if Fraction(i) >= Fraction(n - 1, 2):
            break
        slacks.append(Fraction(seq[i - 1] - (i + 1)))
        if seq[i - 1] < i + 1 and first_bad is None:
            first_bad = i
    if n % 2 == 1:
        mid = (n + 1) // 2
        slacks.append(Fraction(seq[mid - 1] - mid))
        if seq[mid - 1] < mid and first_bad is None:
            first_bad = mid
    return first_bad, tuple(slacks)


def test_integer_checks_match_fraction_reference():
    # the indexed and Posa checks loop and compare in integers; a plain
    # Fraction re-scan must give the same reports, negative gamma included
    from oracles import reference_degree_sequence, sample_digraph

    from tilinglab.degseq import check_baseline

    rng = random.Random("integer-degseq")
    for _ in range(600):
        n, r = rng.randint(0, 30), rng.randint(2, 7)
        gamma = Fraction(rng.randint(-6, 6), rng.randint(1, 40))
        g = sample_gnp(rng, n, rng.random())
        d = sample_digraph(rng, n, rng.random())
        for rep, seq in (
            (check_margin_sequence(g, r, gamma), degree_sequence(g)),
            (check_dominant_margin(d, r, gamma), reference_degree_sequence(d)),
        ):
            first_bad, slacks = fraction_indexed_fields(seq, r, gamma)
            assert (rep.first_violating_index, rep.slack_profile) == (first_bad, slacks)
            assert rep.satisfied == (first_bad is None)
            assert rep.vacuous == (not slacks)
        posa = check_baseline(g, "posa", r)
        assert (posa.first_violating_index, posa.slack_profile) == fraction_posa_fields(
            degree_sequence(g)
        )
        if n % r == 0:
            exact = check_exact_sequence(g, r)
            seq = degree_sequence(g)
            first_bad, slacks = fraction_indexed_fields(seq, r, Fraction(0))
            beta_ok = n // r + 1 <= n and Fraction(seq[n // r]) >= Fraction((r - 1) * n, r)
            assert exact.slack_profile == slacks
            assert exact.satisfied == (first_bad is None and beta_ok)
            if first_bad is not None:
                assert exact.first_violating_index == first_bad


def fraction_first_violation(name, seq, r, gamma):
    """The first violating index of a threshold condition, from its exact
    Fraction thresholds, index by index."""
    n = len(seq)
    if name in ("margin", "dominant-margin"):
        return fraction_indexed_fields(seq, r, gamma)[0]
    if name == "posa":
        return fraction_posa_fields(seq)[0]
    if name == "exact":
        first_bad = fraction_indexed_fields(seq, r, Fraction(0))[0]
        beta = n // r + 1
        if first_bad is None and not (
            beta <= n and Fraction(seq[beta - 1]) >= Fraction((r - 1) * n, r)
        ):
            return beta
        return first_bad
    margin = gamma * n if name == "alon-yuster" else 0
    if n and Fraction(seq[0]) < Fraction((r - 1) * n, r) + margin:
        return 1
    return None


def fraction_report(name, seq, r, gamma):
    """The report of a threshold condition with every quantity a Fraction:
    (its `to_json_obj()`, its slack profile)."""
    n = len(seq)
    first_bad = fraction_first_violation(name, seq, r, gamma)
    label, detail, vacuous = name, None, False
    if name in ("hajnal-szemeredi", "alon-yuster"):
        margin = gamma * n if name == "alon-yuster" else 0
        slacks = (Fraction(seq[0] if n else 0) - (Fraction((r - 1) * n, r) + margin),)
    else:
        if name == "posa":
            slacks = fraction_posa_fields(seq)[1]
        else:
            slacks = fraction_indexed_fields(seq, r, gamma)[1]
        vacuous = not slacks
        if name == "exact":
            label, beta = f"exact(r={r})", n // r + 1
            if first_bad is None:
                detail = "vacuous (a) range" if vacuous else None
            elif first_bad == beta:
                detail = f"(b) violated: d_{beta} < {Fraction((r - 1) * n, r)}"
            else:
                detail = "(a) violated"
        elif name != "posa":
            label = f"{name}(r={r},gamma={gamma})"
            detail = "index range empty" if vacuous else None
    obj = {
        "name": label,
        "satisfied": first_bad is None,
        "vacuous": vacuous,
        "first_violating_index": first_bad,
        "slack_min": str(min(slacks)) if slacks else None,
        "detail": detail,
    }
    return obj, slacks


def test_threshold_vectors_match_fraction_reference():
    # every name but ore decides by its integer vector: the first index with
    # d_i < t_i must be the Fraction re-scan's, and the report's; every
    # report field must be the Fraction reference's
    from oracles import reference_degree_sequence, sample_digraph

    from tilinglab import degseq
    from tilinglab.degseq import check_baseline, first_violation

    vectors = {name: vector for name, (_, vector) in degseq._CONDITIONS.items() if vector}
    assert set(vectors) == set(degseq._CONDITIONS) - {"ore"}
    rng = random.Random("threshold-vectors")
    seen = set()
    for _ in range(600):
        n, r = rng.randint(0, 30), rng.randint(2, 7)
        gamma = Fraction(rng.randint(-6, 6), rng.randint(1, 40))
        g = sample_gnp(rng, n, rng.random())
        d = sample_digraph(rng, n, rng.random())
        seqs = {Graph: reference_degree_sequence(g), Digraph: reference_degree_sequence(d)}
        assert degree_sequence(g) == seqs[Graph] and degree_sequence(d) == seqs[Digraph]
        for name, vector in vectors.items():
            host_kind = degseq._CONDITIONS[name][0]
            host, seq = (g if host_kind is Graph else d), seqs[host_kind]
            if name == "exact" and n % r:
                with pytest.raises(ValueError, match="divisibility"):
                    vector(n, r, gamma)
                with pytest.raises(ValueError, match="divisibility"):
                    check_baseline(host, name, r, gamma)
                if n < r:
                    seen.add("exact refused at n < r")
                continue
            t = vector(n, r, gamma)[0]
            assert all(type(x) is int for x in t)
            assert len(t) == (1 if name == "exact" and n == 0 else n)
            if gamma >= 0:
                assert DegreeCondition(name, r, gamma).thresholds(n) == t
            first_bad = first_violation(seq, t)
            assert first_bad == fraction_first_violation(name, seq, r, gamma), (name, n, r)
            rep = check_baseline(host, name, r, gamma)
            assert (rep.satisfied, rep.first_violating_index) == (first_bad is None, first_bad)
            assert (rep.to_json_obj(), rep.slack_profile) == fraction_report(name, seq, r, gamma)
            seen.add((name, first_bad is None))
            seen.add((name, rep.detail.split(":")[0] if rep.detail else None))
            if name == "exact" and n <= r:
                seen.add(f"exact at n={'r' if n else 0}")
    # both outcomes for every name, and the exact corner cases
    assert {(name, ok) for name in vectors for ok in (True, False)} <= seen
    assert {"exact at n=0", "exact at n=r", "exact refused at n < r"} <= seen
    assert {
        ("exact", "(a) violated"),
        ("exact", "(b) violated"),
        ("exact", "vacuous (a) range"),
        ("margin", "index range empty"),
        ("dominant-margin", "index range empty"),
    } <= seen
    assert not check_baseline(Graph(0), "exact", 3).satisfied
