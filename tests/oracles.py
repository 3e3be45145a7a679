"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written from scratch against the raw edge
sets, without calling the library's spanning or solver code, so that
agreement actually means something.  The exceptions are the references
at the end.  The pair of recursive reference searches call
`enumerate_copies`, which is checked against `brute_embeds` on its own, and
pin down the branching order, node counts and incumbents of the library's
search.  By default they keep the library's memo of finished residuals,
keyed on twins found here pair by pair; with ``memo=False`` they are the
plain recursion.  The reference subset check is the one the absorbing
layer made before it searched the host within a vertex mask: the induced
subgraph, `find_perfect_packing` on it and the parts mapped back to host
ids.  The reference gadget scorer draws the library's samples and asks
that check once per candidate and vertex, so it pins down which
candidates the absorbing-family builder keeps.  The pair checker is the
constructors' per-pair loop as it was before their inline test:
``check_vertex`` on either end, then the loop test, for every pair.
The Ore report is the library's pair-by-pair loop as it was before it
took the least degree sum in integers.  The recursive clique and
transitive-tournament enumerators are the library's copy loops as they
were before they became one flat loop each, and the reference verifier is
`is_perfect_packing` as it was before it kept the covered vertices as a
bitmask: it gives every `VerifyResult` reason, tests a clique part pair
by pair with ``has_edge`` and leaves every other part to the library's
`spans_pattern`.  The recursive twin-class enumerator is `_twin_copies`
as it was before it became one flat loop, over the library's twin states.
The reference absorption is `absorb` as it was before it shared one
absorption test with the family builder and ran its assignment search as
one loop: a table of local packings per vertex and gadget, and a
recursive search over assignments, every subset asked by the reference
subset check.  The reference almost-perfect packing is the pipeline's
greedy-and-exchange stage as it was when each greedy round ran on an
induced copy of the uncovered vertices.  The reference extremal instance
is `extremal_instance` as it was when it listed its edges one by one.
`recursion_room` lowers the interpreter's recursion limit, so a search
that recurses once per level fails fast on a small instance.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import sys
from fractions import Fraction

from tilinglab import absorbing
from tilinglab.constructions import (
    ExtremalInstance,
    ExtremalParams,
    clique_pattern,
    pattern_from_name,
    preset_star_sizes,
    transitive_pattern,
)
from tilinglab.degseq import ConditionReport
from tilinglab.graphs import (
    Digraph,
    Graph,
    GraphFormatError,
    PatternGraph,
    arc_rows,
    bits,
    check_vertex,
    symmetrize,
)
from tilinglab.packing import (
    BudgetExhausted,
    Packing,
    SearchBudget,
    VerifyResult,
    _twin_advance,
    _twin_start,
    enumerate_copies,
    find_perfect_packing,
    greedy_packing,
    spans_pattern,
    transitive_order,
)
from tilinglab.exchange import swap_to_fixpoint
from tilinglab.util import split_seed


def sample_gnp(rng: random.Random, n: int, p: float) -> Graph:
    return Graph(
        n,
        [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p],
    )


def sample_digraph(rng: random.Random, n: int, p: float) -> Digraph:
    arcs = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                arcs.append((i, j))
    return Digraph(n, arcs)


def sample_tournament(rng: random.Random, n: int) -> Digraph:
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            arcs.append((i, j) if rng.random() < 0.5 else (j, i))
    return Digraph(n, arcs)


def reference_degree_sequence(g) -> list[int]:
    """d_1 <= ... <= d_n by the per-vertex degree queries: the degrees of a
    graph, max(d+, d-) of a digraph."""
    if isinstance(g, Digraph):
        return sorted(max(g.out_degree(v), g.in_degree(v)) for v in range(g.n))
    return sorted(g.degree(v) for v in range(g.n))


def raw_pairs(g) -> frozenset:
    """The edge set of a graph or the arc set of a digraph."""
    return g.arcs if isinstance(g, Digraph) else g.edges


def brute_spans(pairs, verts, name: str) -> bool:
    """Direct spanning test for K2, K3, T3 from raw membership in the host's
    pair set (``raw_pairs``, read once by the caller)."""
    vs = list(verts)
    if name == "K2":
        (u, v) = vs
        return (min(u, v), max(u, v)) in pairs
    if name == "K3":
        a, b, c = vs
        e = pairs
        return (
            (min(a, b), max(a, b)) in e
            and (min(a, c), max(a, c)) in e
            and (min(b, c), max(b, c)) in e
        )
    if name == "T3":
        for p in itertools.permutations(vs):
            if (
                (p[0], p[1]) in pairs
                and (p[0], p[2]) in pairs
                and (p[1], p[2]) in pairs
            ):
                return True
        return False
    raise ValueError(name)


def brute_embeds(host_pairs, verts, base) -> bool:
    """Some bijection from the pattern ``base`` onto verts maps every
    pattern edge (arc) onto a host edge (arc), by raw membership in the
    host's pair set (``raw_pairs``, read once by the caller)."""
    directed = isinstance(base, Digraph)
    pattern_pairs = raw_pairs(base)
    for image in itertools.permutations(verts):
        mapped = ((image[a], image[b]) for a, b in pattern_pairs)
        if directed and all(pair in host_pairs for pair in mapped):
            return True
        if not directed and all((min(p), max(p)) in host_pairs for p in mapped):
            return True
    return False


def partitions_into(vs: list[int], h: int):
    """All partitions of vs into parts of size h (vs sorted, no repeats)."""
    if not vs:
        yield []
        return
    first, rest = vs[0], vs[1:]
    for combo in itertools.combinations(rest, h - 1):
        part = (first,) + combo
        chosen = set(combo)
        remaining = [v for v in rest if v not in chosen]
        for tail in partitions_into(remaining, h):
            yield [part] + tail


def oracle_perfect_decision(host, name: str) -> bool:
    """Perfect-packing decision by enumerating every set partition, each
    part tested by `brute_spans` for K2, K3 and T3 and by `brute_embeds`
    for any other pattern name."""
    base = None if name in ("K2", "K3", "T3") else pattern_from_name(name).base
    h = int(name[1]) if base is None else base.n
    if host.n % h != 0:
        return False
    pairs = raw_pairs(host)

    def spans(part):
        return brute_spans(pairs, part, name) if base is None else brute_embeds(pairs, part, base)

    for parts in partitions_into(list(range(host.n)), h):
        if all(spans(part) for part in parts):
            return True
    return False


def oracle_max_coverage(host, name: str) -> int:
    """Maximum covered vertices over all disjoint copy subsets."""
    h = {"K2": 2, "K3": 3, "T3": 3}[name]
    pairs = raw_pairs(host)
    copies = [
        frozenset(c)
        for c in itertools.combinations(range(host.n), h)
        if brute_spans(pairs, c, name)
    ]

    best = 0

    def rec(idx: int, used: frozenset, covered: int):
        nonlocal best
        best = max(best, covered)
        if covered + (host.n - len(used)) // h * h <= best:
            return
        for k in range(idx, len(copies)):
            if not copies[k] & used:
                rec(k + 1, used | copies[k], covered + h)

    rec(0, frozenset(), 0)
    return best


def equitable_complement_packing(g: Graph, r: int) -> Packing | None:
    """Perfect K_r-packing via equitable colouring of the complement.

    A partition into r-cliques of G is exactly a proper colouring of the
    complement with all classes of size r.  Implemented as an independent
    backtracking over colour classes, used to cross-validate the main
    solver.
    """
    if r < 1 or g.n % r != 0:
        return None
    k = g.n // r
    classes: list[list[int]] = []
    masks: list[int] = []

    def rec(v: int) -> bool:
        if v == g.n:
            return True
        opened = len(classes)
        for c in range(opened):
            if len(classes[c]) < r and g.adj[v] & masks[c] == masks[c]:
                classes[c].append(v)
                masks[c] |= 1 << v
                if rec(v + 1):
                    return True
                classes[c].pop()
                masks[c] &= ~(1 << v)
        if opened < k:
            classes.append([v])
            masks.append(1 << v)
            if rec(v + 1):
                return True
            classes.pop()
            masks.pop()
        return False

    if rec(0):
        return Packing.uniform(g.n, classes, clique_pattern(r))
    return None


def has_path_on_4_vertices(g: Graph, inside: list[int]) -> bool:
    """Exhaustive search for a path with 4 vertices within a vertex set."""
    for quad in itertools.permutations(inside, 4):
        if (
            g.has_edge(quad[0], quad[1])
            and g.has_edge(quad[1], quad[2])
            and g.has_edge(quad[2], quad[3])
        ):
            return True
    return False


def brute_twin_classes(host) -> list[list[int]]:
    """Classes of host vertices u, v whose swap maps the raw pair set onto
    itself, tested pair by pair."""
    directed = isinstance(host, Digraph)
    pairs = raw_pairs(host)

    def swap(x, u, v):
        return v if x == u else u if x == v else x

    def twins(u, v):
        moved = {(swap(a, u, v), swap(b, u, v)) for a, b in pairs}
        return moved == set(pairs) if directed else {tuple(sorted(p)) for p in moved} == set(pairs)

    classes = []
    for v in range(host.n):
        home = next((c for c in classes if twins(c[0], v)), None)
        if home is None:
            classes.append([v])
        else:
            home.append(v)
    return classes


def twin_count_key(host):
    """A residual mask's key: its part outside nontrivial twin classes and
    its count in each of them."""
    classes = [c for c in brute_twin_classes(host) if len(c) > 1]
    alone = [v for v in range(host.n) if not any(v in c for c in classes)]

    def key(mask):
        counts = tuple(sum(mask >> v & 1 for v in c) for c in classes)
        return tuple(v for v in alone if mask >> v & 1), counts

    return key


def reference_independence(pattern) -> int | None:
    """The independence number of a pattern whose non-adjacency is an
    equivalence (a complete multipartite graph or a clique: its largest
    class) or of a tournament without a directed cycle (1), from its raw
    pairs; None for every other pattern."""
    base = pattern.base
    pairs = raw_pairs(base)
    vs = range(base.n)
    if isinstance(base, Digraph):
        tournament = all(((u, v) in pairs) != ((v, u) in pairs) for u in vs for v in vs if u < v)
        acyclic = any(
            all((a, b) in pairs for i, a in enumerate(order) for b in order[i + 1:])
            for order in itertools.permutations(vs)
        )
        return 1 if tournament and acyclic else None
    apart = [{v for v in vs if v == u or (min(u, v), max(u, v)) not in pairs} for u in vs]
    if any(apart[v] != apart[u] for u in vs for v in apart[u]):
        return None
    return max(len(a) for a in apart)


def reference_barriers(host, pattern):
    """(local, space) as written from the raw pairs: ``local`` is whether a
    host vertex has fewer neighbours (by an arc either way) than the
    pattern's least degree; ``space(mask)`` is whether some independent
    nontrivial twin class of `brute_twin_classes` holds more than
    α·|mask|/h of the mask, for α from `reference_independence` (never
    without it)."""
    h = pattern.order
    pairs = raw_pairs(host)

    def degree(g, gpairs, v):
        return sum(1 for u in range(g.n) if (u, v) in gpairs or (v, u) in gpairs)

    least = min(degree(pattern.base, raw_pairs(pattern.base), v) for v in range(h))
    local = any(degree(host, pairs, v) < least for v in range(host.n))
    alpha = reference_independence(pattern)
    independent = [
        c for c in brute_twin_classes(host)
        if len(c) > 1 and not any((u, v) in pairs for u in c for v in c)
    ]

    def space(mask):
        size = bin(mask).count("1")
        return alpha is not None and any(
            sum(mask >> v & 1 for v in c) * h > alpha * size for c in independent
        )

    return local, space


class _Refuted(Exception):
    """The root's local barrier, seen at the first backtrack."""


def reference_perfect_packing(host, pattern, budget=None, memo=True):
    """The recursive perfect-packing search, branching on the lowest
    uncovered vertex: its parts in the order chosen, or None.  With
    ``memo``, from the first backtrack on (a node trying its second copy),
    a residual whose twin-count key failed before fails at once, and so
    does one with a space barrier (`reference_barriers`), at each node and
    before each copy after the first; at that first backtrack a local
    barrier of the whole host ends the search with None."""
    if host.n % pattern.order != 0:
        return None
    chosen = []
    key = twin_count_key(host) if memo else None
    local, space = reference_barriers(host, pattern) if memo else (False, None)
    failed = set()
    started = False

    def rec(mask):
        nonlocal started
        if budget is not None:
            budget.tick()
        if mask == 0:
            return True
        if memo and (key(mask) in failed or started and space(mask)):
            return False
        v = (mask & -mask).bit_length() - 1
        for i, verts in enumerate(enumerate_copies(host, pattern, v, mask)):
            if memo and i:
                if not started:
                    started = True
                    if local:
                        raise _Refuted
                if space(mask):
                    break
            part_mask = 0
            for u in verts:
                part_mask |= 1 << u
            chosen.append(verts)
            if rec(mask & ~part_mask):
                return True
            chosen.pop()
        if memo:
            failed.add(key(mask))
        return False

    try:
        return chosen if rec(host.full_mask()) else None
    except _Refuted:
        return None


def reference_max_packing(host, pattern, budget=None, memo=True):
    """The recursive branch-and-bound for maximum coverage: (best parts as
    (part, pattern) pairs, optimal, nodes).  With ``memo`` a residual is
    pruned when its twin-count key was finished with at least as much
    covered, and a node re-checks its bound before each child after the
    first."""
    patterns = [pattern] if isinstance(pattern, PatternGraph) else list(pattern)
    own_budget = budget if budget is not None else SearchBudget(None)
    orders = sorted({p.order for p in patterns})
    reachable = [False] * (host.n + 1)
    reachable[0] = True
    for o in orders:
        for s in range(o, host.n + 1):
            if reachable[s - o]:
                reachable[s] = True
    coverable = [0] * (host.n + 1)
    for x in range(1, host.n + 1):
        coverable[x] = x if reachable[x] else coverable[x - 1]
    best_parts = []
    best_cov = -1
    stack_parts = []
    key = twin_count_key(host) if memo else None
    finished = {}

    def rec(mask, covered):
        nonlocal best_cov, best_parts
        own_budget.tick()
        if covered + coverable[mask.bit_count()] <= best_cov:
            return
        if memo and finished.get(key(mask), -1) >= covered:
            return
        if covered > best_cov:
            best_cov = covered
            best_parts = list(stack_parts)
        if mask == 0:
            return
        v = (mask & -mask).bit_length() - 1
        children = [
            (verts, pat) for pat in patterns for verts in enumerate_copies(host, pat, v, mask)
        ]
        children.append(((v,), None))  # leave v uncovered
        for i, (verts, pat) in enumerate(children):
            if memo and i and covered + coverable[mask.bit_count()] <= best_cov:
                break
            part_mask = 0
            for u in verts:
                part_mask |= 1 << u
            if pat is None:
                rec(mask & ~part_mask, covered)
            else:
                stack_parts.append((verts, pat))
                rec(mask & ~part_mask, covered + len(verts))
                stack_parts.pop()
        if memo:
            finished[key(mask)] = max(finished.get(key(mask), -1), covered)

    optimal = True
    try:
        rec(host.full_mask(), 0)
    except BudgetExhausted:
        optimal = False
    return best_parts, optimal, own_budget.nodes


def reference_perfect_on_subset(host, pattern, verts, budget=None):
    """The parts of a perfect packing of host[verts] in host ids, or None:
    `find_perfect_packing` on the induced subgraph, mapped back."""
    sub, mapping = host.induced(verts)
    packing = find_perfect_packing(sub, pattern, budget)
    if packing is None:
        return None
    return [tuple(sorted(mapping[v] for v in part)) for part in packing.parts]


def reference_absorbing_family(host, pattern, t, sample_size, rng_seed, max_gadgets):
    """The absorbing family as `build_absorbing_family` draws it, scored by
    asking `reference_perfect_on_subset` whether each candidate absorbs each endpoint
    of each sampled pair (the second endpoint only when the first is
    absorbed).  The union of the gadgets is not checked for a perfect
    packing here."""
    n, h = host.n, pattern.order
    gsize = t * h - 1
    if max_gadgets is None:
        max_gadgets = 2 * h
    rng = random.Random(split_seed(rng_seed))
    pairs = []
    for _ in range(absorbing._PAIR_SAMPLES):
        pair = tuple(sorted(rng.sample(range(n), 2)))
        if pair not in pairs:
            pairs.append(pair)
    gadgets = []
    used = set()
    for _ in range(sample_size):
        if len(gadgets) >= max_gadgets:
            break
        cand = tuple(sorted(rng.sample(range(n), gsize)))
        if used & set(cand):
            continue
        hit = 0
        for pair in pairs:
            if set(pair) & set(cand):
                continue
            if all(reference_perfect_on_subset(host, pattern, cand + (w,)) for w in pair):
                hit += 1
        if hit >= absorbing._PAIR_THRESHOLD:
            gadgets.append(absorbing.AbsorbingGadget(cand, hit))
            used.update(cand)
    params = {"t": t, "sample_size": sample_size, "pair_threshold": absorbing._PAIR_THRESHOLD,
              "max_gadgets": max_gadgets, "pair_sample_size": absorbing._PAIR_SAMPLES}
    keep = len(gadgets) // h * h
    return absorbing.AbsorbingFamily(tuple(gadgets[:keep]), params, rng_seed)


def reference_rows(cls, n: int, pairs) -> tuple[tuple[int, ...], ...]:
    """The rows of ``cls(n, pairs)``, ``(adj,)`` or ``(out, inn)``, with every
    pair checked in full one after another; raises the GraphFormatError
    of the first bad pair."""
    fwd, back = [0] * n, [0] * n
    for u, v in pairs:
        check_vertex(u, n)
        check_vertex(v, n)
        if u == v:
            raise GraphFormatError(f"loop at vertex {u}")
        fwd[u] |= 1 << v
        back[v] |= 1 << u
    if cls is Graph:
        return (tuple(f | b for f, b in zip(fwd, back)),)
    return tuple(fwd), tuple(back)


def reference_ore(g: Graph, r: int) -> ConditionReport:
    """The Ore report, one Fraction slack per non-adjacent pair."""
    n = g.n
    ore_threshold = 2 * Fraction((r - 1) * n, r) - 1
    ore_worst: Fraction | None = None
    for u in range(n):
        for v in range(u + 1, n):
            if not g.has_edge(u, v):
                s = Fraction(g.degree(u) + g.degree(v)) - ore_threshold
                if ore_worst is None or s < ore_worst:
                    ore_worst = s
    return ConditionReport(
        "ore",
        satisfied=ore_worst is None or ore_worst >= 0,
        vacuous=ore_worst is None,
        slack_profile=() if ore_worst is None else (ore_worst,),
        detail="no non-adjacent pairs" if ore_worst is None else None,
    )


def reference_clique_copies(g: Graph, r: int, within: int, through: int | None):
    """The sets spanning K_r by nested generators, one per level."""

    def extend(current, cand, lo):
        if len(current) == r:
            yield tuple(sorted(current))
            return
        cand &= ~((1 << lo) - 1)
        for v in bits(cand):
            current.append(v)
            yield from extend(current, cand & g.adj[v], v + 1)
            current.pop()

    if through is None:
        yield from extend([], within, 0)
    else:
        yield from extend([through], within & g.adj[through], 0)


def reference_transitive_copies(d: Digraph, r: int, within: int, through: int | None):
    """The sets spanning T_r by nested generators, one per level, each
    partial set kept only while it is still orderable."""

    def extend(current, lo):
        if len(current) == r:
            yield tuple(sorted(current))
            return
        cand = within & ~((1 << lo) - 1)
        for v in bits(cand):
            current.append(v)
            if transitive_order(d, current) is not None:
                yield from extend(current, v + 1)
            current.pop()

    if through is None:
        yield from extend([], 0)
    else:
        within &= ~(1 << through)
        yield from extend([through], 0)


def reference_is_perfect_packing(host, packing: Packing, universe=None) -> VerifyResult:
    """Disjointness, coverage and spanning, checked vertex by vertex and part
    by part, with the first failure's reason."""
    target = frozenset(range(host.n)) if universe is None else frozenset(universe)
    seen: set[int] = set()
    for idx, (part, pat) in enumerate(zip(packing.parts, packing.patterns)):
        for v in part:
            if isinstance(v, bool):
                return VerifyResult(False, f"part {idx}: vertex {v!r} is not an integer")
            if not 0 <= v < host.n:
                return VerifyResult(False, f"part {idx}: vertex {v} out of range")
            if v not in target:
                return VerifyResult(False, f"part {idx}: vertex {v} outside universe")
            if v in seen:
                return VerifyResult(False, f"disjointness violated at vertex {v}")
            seen.add(v)
        if len(part) != pat.order:
            return VerifyResult(
                False, f"part {idx}: size {len(part)} != pattern order {pat.order}"
            )
        vs = sorted(set(part))
        if pat.clique_order and len(vs) == pat.order and isinstance(host, Graph):
            spans = all(host.has_edge(u, v) for u, v in itertools.combinations(vs, 2))
        else:
            spans = spans_pattern(host, part, pat) is not None
        if not spans:
            return VerifyResult(
                False, f"part {idx}: {tuple(part)} does not span {pat.name}"
            )
    if seen != target:
        missing = sorted(target - seen)
        return VerifyResult(False, f"coverage violated: {missing} uncovered")
    return VerifyResult(True)


def reference_twin_copies(host, pattern: PatternGraph, within: int, through: int | None):
    """The sets spanning a pattern of the twin-class search by nested
    generators, one per level, over the library's twin states."""
    tw = pattern.twin_classes()
    rows = arc_rows(host)
    h = pattern.order

    def extend(current, states):
        cand = 0
        for _, masks, _ in states.values():
            for m in masks:
                cand |= m
        if len(current) + cand.bit_count() < h:
            return
        if len(current) == h - 1:
            for v in bits(cand):
                yield tuple(sorted(current + [v]))
            return
        for v in bits(cand):
            current.append(v)
            yield from extend(current, _twin_advance(tw, rows, states, v, -(2 << v)))
            current.pop()

    start = _twin_start(tw, within)
    if through is None:
        yield from extend([], start)
    else:
        yield from extend(
            [through], _twin_advance(tw, rows, start, through, ~(1 << through))
        )


def reference_absorb(host, pattern: PatternGraph, fam, W) -> tuple[Packing | None, str | None]:
    """`absorb` on valid input by a table of local packings and a recursive
    assignment search capped at 500 leaves: the packing and None, or None
    and the reason."""
    w = sorted(W)
    if len(w) > fam.capacity():
        return None, f"capacity exceeded: |W|={len(w)} > {fam.capacity()} gadgets"
    feasible = {}
    for v in w:
        options = []
        for gi, gadget in enumerate(fam.gadgets):
            local = reference_perfect_on_subset(host, pattern, gadget.verts + (v,))
            if local is not None:
                options.append((gi, local))
        if not options:
            return None, f"no gadget absorbs vertex {v}"
        feasible[v] = options
    attempts = 0
    max_attempts = 500
    assignment = {}
    taken = set()

    def assign(idx):
        nonlocal attempts
        if idx == len(w):
            attempts += 1
            if attempts > max_attempts:
                return None
            idle_verts = sorted(
                u for gi, gadget in enumerate(fam.gadgets) if gi not in taken for u in gadget.verts
            )
            parts = []
            for _, local in assignment.values():
                parts.extend(local)
            if idle_verts:
                idle = reference_perfect_on_subset(host, pattern, idle_verts)
                if idle is None:
                    return None
                parts.extend(idle)
            return Packing.uniform(host.n, parts, pattern)
        v = w[idx]
        for gi, local in feasible[v]:
            if gi in taken or attempts > max_attempts:
                continue
            taken.add(gi)
            assignment[v] = (gi, local)
            result = assign(idx + 1)
            if result is not None:
                return result
            taken.discard(gi)
            del assignment[v]
        return None

    found = assign(0)
    if found is not None:
        return found, None
    if attempts > max_attempts:
        return None, (
            "no gadget assignment with a packable idle remainder found "
            f"within {max_attempts} configurations"
        )
    return None, (
        "no gadget assignment with a packable idle remainder exists: "
        f"the search tried all {attempts} configurations"
    )


def reference_almost_pack(host, pattern: PatternGraph) -> Packing:
    """`absorbing._almost_pack`: a greedy packing, then, for a clique or
    transitive-tournament pattern, exchanges to a fixpoint and a greedy
    round on the induced subgraph of the uncovered vertices, mapped back,
    until a round adds no part."""
    m = greedy_packing(host, pattern)
    if pattern.transitive_order:
        dhost = host
    elif pattern.clique_order and isinstance(host, Graph):
        dhost = symmetrize(host)
    else:
        return m
    r = pattern.order
    tr = transitive_pattern(r)
    work = Packing.uniform(host.n, m.parts, tr)
    added = True
    while added:
        work, _ = swap_to_fixpoint(dhost, r, work)
        rest, mapping = dhost.induced(bits(host.full_mask() & ~work.covered_mask()))
        added = [tuple(mapping[v] for v in part) for part in greedy_packing(rest, tr).parts]
        work = Packing.uniform(host.n, list(work.parts) + added, tr)
    return Packing.uniform(host.n, work.parts, pattern)


def reference_extremal_instance(params: ExtremalParams) -> ExtremalInstance:
    """`extremal_instance` from a list of edges: V_3 complete and joined to
    every vertex outside V_1, every other class but V_1 joined to its
    complement, and one star per consecutive chunk of V_2."""
    params.validate()
    sizes = params.class_sizes()
    classes = []
    start = 0
    for size in sizes:
        classes.append(tuple(range(start, start + size)))
        start += size
    v1, v2, v3 = classes[0], classes[1], classes[2]
    edges = []
    for u in v3:
        for w in range(params.n):
            if w not in v1 and w != u and (w not in v3 or w > u):
                edges.append((u, w))
    for cls in [v2, *classes[3:]]:
        for u in cls:
            for w in range(params.n):
                if w not in cls:
                    edges.append((u, w))
    stars = []
    pos = 0
    for size in params.star_sizes or preset_star_sizes(params.n, sizes[1]):
        chunk = v2[pos : pos + size]
        pos += size
        edges.extend((chunk[0], leaf) for leaf in chunk[1:])
        stars.append(tuple(chunk))
    return ExtremalInstance(Graph(params.n, edges), 0, tuple(classes), tuple(stars), params)


@contextlib.contextmanager
def recursion_room(frames: int):
    """Run the block with the recursion limit ``frames`` above the depth
    of the caller, restoring the old limit afterwards."""
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)
