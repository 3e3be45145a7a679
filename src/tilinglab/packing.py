"""Copy enumeration and exact packing search.

This module is the ground-truth oracle of the package: `find_perfect_packing`
decides perfect packings by exhaustive backtracking (branching on the
lowest-index uncovered vertex), `max_packing` maximises covered vertices by
branch-and-bound, and `is_perfect_packing` re-verifies every structure any
other module produces.

A vertex set "spans" a pattern when the host contains the pattern as a
subgraph on that set (extra edges are fine).  Spanning tests and copy
enumeration dispatch on the pattern's structure: cliques and transitive
tournaments get dedicated mask-based generators, complete multipartite
patterns go through a complement-component grouping test, and everything
else falls back to a generic embedding search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .graphs import Digraph, Graph, PatternGraph, bits


class BudgetExhausted(RuntimeError):
    """Search stopped by node budget; the answer is unknown, not NONE."""


class SearchBudget:
    """Node counter with an optional limit.

    Passing a budget with ``limit=None`` just counts search nodes, which the
    experiment harness records as its deterministic cost measure.
    """

    __slots__ = ("limit", "nodes")

    def __init__(self, limit: int | None = None):
        self.limit = limit
        self.nodes = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.limit is not None and self.nodes > self.limit:
            raise BudgetExhausted(f"node budget {self.limit} exhausted")


@dataclass(frozen=True)
class Packing:
    """A vertex-disjoint family of pattern copies in a host of order n.

    ``parts[i]`` spans ``patterns[i]``.  Uniform packings have one distinct
    pattern; mixed ones (for instance transitive tournaments of two sizes)
    tag every part with its own pattern.
    """

    n: int
    parts: tuple[tuple[int, ...], ...]
    patterns: tuple[PatternGraph, ...]

    @staticmethod
    def uniform(n: int, parts: Iterable[Sequence[int]], pattern: PatternGraph) -> "Packing":
        pts = tuple(tuple(sorted(p)) for p in parts)
        return Packing(n, pts, tuple(pattern for _ in pts))

    @staticmethod
    def tagged(n: int, tagged_parts: Iterable[tuple[Sequence[int], PatternGraph]]) -> "Packing":
        parts = []
        pats = []
        for verts, pat in tagged_parts:
            parts.append(tuple(sorted(verts)))
            pats.append(pat)
        return Packing(n, tuple(parts), tuple(pats))

    def covered(self) -> frozenset[int]:
        return frozenset(v for part in self.parts for v in part)

    def coverage(self) -> int:
        return sum(len(part) for part in self.parts)

    def covered_mask(self) -> int:
        m = 0
        for part in self.parts:
            for v in part:
                m |= 1 << v
        return m

    def is_mixed(self) -> bool:
        return len({pat.name for pat in self.patterns}) > 1

    def pattern_names(self) -> list[str]:
        return [pat.name for pat in self.patterns]

    def to_json_obj(self) -> dict:
        if not self.is_mixed():
            name = self.patterns[0].name if self.patterns else None
            return {"pattern": name, "parts": [list(p) for p in self.parts]}
        return {
            "pattern": "mixed",
            "parts": [
                {"pattern": pat.name, "verts": list(part)}
                for part, pat in zip(self.parts, self.patterns)
            ],
        }


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


# -- spanning tests ---------------------------------------------------------


def transitive_order(d: Digraph, verts: Sequence[int]) -> list[int] | None:
    """A linear order of verts with every forward arc present, or None.

    Greedily strips any vertex that dominates all remaining ones; if a valid
    order exists, any full dominator can go first, so the greedy search is
    complete.
    """
    remaining = list(verts)
    mask = 0
    for v in remaining:
        mask |= 1 << v
    order = []
    while remaining:
        pick = None
        for u in remaining:
            if d.out[u] & mask == mask ^ (1 << u):
                pick = u
                break
        if pick is None:
            return None
        order.append(pick)
        mask ^= 1 << pick
        remaining.remove(pick)
    return order


def _complement_components(g: Graph, verts: Sequence[int]) -> list[list[int]]:
    """Connected components of the non-adjacency relation inside verts."""
    vm = 0
    for v in verts:
        vm |= 1 << v
    comps = []
    todo = vm
    while todo:
        start = todo & -todo
        block = 0
        frontier = start
        while frontier:
            block |= frontier
            nxt = 0
            for u in bits(frontier):
                nxt |= vm & ~g.adj[u] & ~(1 << u)
            frontier = nxt & ~block
        comps.append(list(bits(block)))
        todo &= ~block
    return comps


def _group_components(sizes: list[int], classes: list[int]) -> list[int] | None:
    """Assign component sizes to class bins filled exactly; returns bin index
    per component, or None."""
    order = sorted(range(len(sizes)), key=lambda i: -sizes[i])
    remaining = list(classes)
    assign = [-1] * len(sizes)

    def rec(k: int) -> bool:
        if k == len(order):
            return all(r == 0 for r in remaining)
        i = order[k]
        seen = set()
        for b, room in enumerate(remaining):
            if room >= sizes[i] and room not in seen:
                seen.add(room)  # bins with equal residual capacity are symmetric
                remaining[b] -= sizes[i]
                assign[i] = b
                if rec(k + 1):
                    return True
                remaining[b] += sizes[i]
                assign[i] = -1
        return False

    return assign if rec(0) else None


def _packable_under_capacity(sizes: list[int], caps: list[int]) -> bool:
    """Can each size go entirely into one bin without exceeding capacities?
    Bins may stay under-filled."""
    order = sorted(sizes, reverse=True)
    residual = sorted(caps, reverse=True)

    def rec(k: int) -> bool:
        if k == len(order):
            return True
        seen = set()
        for b, room in enumerate(residual):
            if room >= order[k] and room not in seen:
                seen.add(room)
                residual[b] -= order[k]
                if rec(k + 1):
                    residual[b] += order[k]
                    return True
                residual[b] += order[k]
        return False

    return rec(0)


def _multipartite_copies(
    g: Graph, pattern: PatternGraph, within: int, through: int | None
) -> Iterator[tuple[int, ...]]:
    """Canonical (ids-ascending) enumeration of sets spanning a complete
    multipartite pattern.

    A partial set stays viable only while its non-adjacency components can
    each nest inside one pattern class: in any completion, non-adjacent
    vertices must share a class, so the restriction of the final class
    partition witnesses exactly this bin-packing.
    """
    classes = list(pattern.multipartite)
    max_class = classes[0]
    h = pattern.order

    def push(comps: list[int], v: int) -> list[int] | None:
        """Component masks after adding v; None when a component overflows.
        Components only merge as the set grows, so this is incremental."""
        nonnb = ~g.adj[v]
        merged = 1 << v
        out = []
        for comp in comps:
            if comp & nonnb:
                merged |= comp
            else:
                out.append(comp)
        if merged.bit_count() > max_class:
            return None
        out.append(merged)
        return out

    def extend(
        current: list[int], comps: list[int], lo: int
    ) -> Iterator[tuple[int, ...]]:
        if len(current) == h:
            # at full size the capacities bind exactly, so feasibility at
            # the last extension already certified the span
            yield tuple(sorted(current))
            return
        cand = within & ~((1 << lo) - 1)
        if len(current) + cand.bit_count() < h:
            return
        for v in bits(cand):
            nxt = push(comps, v)
            if nxt is not None and _packable_under_capacity(
                [c.bit_count() for c in nxt], classes
            ):
                current.append(v)
                yield from extend(current, nxt, v + 1)
                current.pop()

    if through is None:
        yield from extend([], [], 0)
    else:
        if not within >> through & 1:
            return
        within &= ~(1 << through)
        yield from extend([through], [1 << through], 0)


def _spans_multipartite(
    g: Graph, verts: Sequence[int], pattern: PatternGraph
) -> dict | None:
    """Group the host set's non-adjacency components into the pattern's
    classes; a witness maps each pattern class onto one group."""
    pattern_classes = _complement_components(pattern.base, range(pattern.order))
    comps = _complement_components(g, verts)
    assign = _group_components(
        [len(c) for c in comps], [len(c) for c in pattern_classes]
    )
    if assign is None:
        return None
    groups: list[list[int]] = [[] for _ in pattern_classes]
    for comp, b in zip(comps, assign):
        groups[b].extend(comp)
    witness = {}
    for cls, group in zip(pattern_classes, groups):
        for p, v in zip(sorted(cls), sorted(group)):
            witness[p] = v
    return witness


def _pattern_embed_order(pattern: PatternGraph) -> list[int]:
    """Static embedding order: highest degree first, then most-constrained."""
    base = pattern.base
    if pattern.is_digraph:
        deg = [base.out_degree(v) + base.in_degree(v) for v in range(base.n)]
        und = [base.out[v] | base.inn[v] for v in range(base.n)]
    else:
        deg = [base.degree(v) for v in range(base.n)]
        und = [base.adj[v] for v in range(base.n)]
    order = []
    placed = 0
    rest = set(range(base.n))
    while rest:
        best = max(
            rest,
            key=lambda p: ((und[p] & placed).bit_count(), deg[p], -p),
        )
        order.append(best)
        placed |= 1 << best
        rest.remove(best)
    return order


def _enumerate_embeddings(
    host: Graph | Digraph,
    pattern: PatternGraph,
    within: int,
    fixed: dict[int, int] | None = None,
) -> Iterator[dict[int, int]]:
    """All embeddings (pattern vertex -> host vertex) inside the mask.

    ``fixed`` pre-places pattern vertices.  Distinct embeddings may share an
    image set; callers that want copies must dedupe.
    """
    base = pattern.base
    order = _pattern_embed_order(pattern)
    if fixed:
        order = [p for p in fixed] + [p for p in order if p not in fixed]
    digraph = pattern.is_digraph
    if digraph:
        pdeg = [base.out_degree(v) + base.in_degree(v) for v in range(base.n)]
        hdeg = [host.out_degree(v) + host.in_degree(v) for v in range(host.n)]
    else:
        pdeg = [base.degree(v) for v in range(base.n)]
        hdeg = [host.degree(v) for v in range(host.n)]
    img: dict[int, int] = {}
    used = 0

    def candidates(p: int) -> int:
        cand = within & ~used
        for q, iq in img.items():
            if digraph:
                if base.has_arc(p, q):
                    cand &= host.inn[iq]
                if base.has_arc(q, p):
                    cand &= host.out[iq]
            else:
                if base.has_edge(p, q):
                    cand &= host.adj[iq]
        return cand

    def rec(k: int) -> Iterator[dict[int, int]]:
        if k == len(order):
            yield dict(img)
            return
        nonlocal used
        p = order[k]
        if fixed and p in fixed:
            v = fixed[p]
            if used >> v & 1 or not (within >> v & 1) or not (candidates(p) >> v & 1):
                return
            cand_list = [v]
        else:
            cand_list = [v for v in bits(candidates(p)) if hdeg[v] >= pdeg[p]]
        for v in cand_list:
            img[p] = v
            used |= 1 << v
            yield from rec(k + 1)
            used &= ~(1 << v)
            del img[p]

    yield from rec(0)


def spans_pattern(
    host: Graph | Digraph, verts: Sequence[int], pattern: PatternGraph
) -> dict[int, int] | None:
    """Witness mapping if the vertex set spans the pattern, else None."""
    vs = sorted(set(verts))
    if len(vs) != pattern.order:
        return None
    if pattern.is_digraph != isinstance(host, Digraph):
        return None
    if pattern.transitive_order:
        order = transitive_order(host, vs)
        if order is None:
            return None
        return {i: v for i, v in enumerate(order)}
    if pattern.clique_order:
        for u, v in itertools.combinations(vs, 2):
            if not host.has_edge(u, v):
                return None
        return {i: v for i, v in enumerate(vs)}
    if pattern.multipartite:
        return _spans_multipartite(host, vs, pattern)
    mask = 0
    for v in vs:
        mask |= 1 << v
    for emb in _enumerate_embeddings(host, pattern, mask):
        return emb
    return None


# -- copy enumeration ---------------------------------------------------------


def _clique_copies(
    g: Graph, r: int, within: int, through: int | None
) -> Iterator[tuple[int, ...]]:
    def extend(current: list[int], cand: int, lo: int) -> Iterator[tuple[int, ...]]:
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
        if not within >> through & 1:
            return
        yield from extend([through], within & g.adj[through], 0)


def _transitive_copies(
    d: Digraph, r: int, within: int, through: int | None
) -> Iterator[tuple[int, ...]]:
    """Vertex sets spanning T_r, each exactly once (ids ascending), pruning
    any partial set that has already lost orderability."""

    def extend(current: list[int], lo: int) -> Iterator[tuple[int, ...]]:
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
        if not within >> through & 1:
            return
        within &= ~(1 << through)
        yield from extend([through], 0)


def enumerate_copies(
    host: Graph | Digraph,
    pattern: PatternGraph,
    through: int | None = None,
    within: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield every vertex set spanning the pattern, as a sorted tuple.

    ``through`` restricts to sets containing that vertex, which must be a
    host vertex; ``within`` is a bitmask restricting the host vertices
    considered.  No set is yielded twice.  A caller that wants a witness
    mapping calls `spans_pattern` on the set.
    """
    if through is not None and not 0 <= through < host.n:
        raise ValueError(f"vertex {through} out of range 0..{host.n - 1}")
    if pattern.order > host.n:
        return
    if pattern.is_digraph != isinstance(host, Digraph):
        raise ValueError("pattern and host kinds differ")
    mask = host.full_mask() if within is None else within
    if through is not None and not mask >> through & 1:
        return
    if pattern.transitive_order:
        yield from _transitive_copies(host, pattern.order, mask, through)
        return
    if pattern.clique_order:
        yield from _clique_copies(host, pattern.order, mask, through)
        return
    if pattern.multipartite:
        yield from _multipartite_copies(host, pattern, mask, through)
        return
    seen: set[tuple[int, ...]] = set()
    fixings = (
        [None] if through is None else [{p: through} for p in range(pattern.order)]
    )
    for fixed in fixings:
        for emb in _enumerate_embeddings(host, pattern, mask, fixed):
            verts = tuple(sorted(emb.values()))
            if verts not in seen:
                seen.add(verts)
                yield verts


# -- exact solvers ------------------------------------------------------------


def find_perfect_packing(
    host: Graph | Digraph,
    pattern: PatternGraph,
    budget: SearchBudget | None = None,
) -> Packing | None:
    """Exact perfect-packing decision by backtracking.

    Returns a verified packing, or None only after exhausting the search
    space.  Branches on the lowest-index uncovered vertex so that exhaustion
    certifies nonexistence.  Raises BudgetExhausted if a node budget runs
    out (never silently reported as None).
    """
    h = pattern.order
    if host.n % h != 0:
        return None
    chosen: list[tuple[int, ...]] = []

    def rec(mask: int) -> bool:
        if budget is not None:
            budget.tick()
        if mask == 0:
            return True
        v = (mask & -mask).bit_length() - 1
        for verts in enumerate_copies(host, pattern, v, mask):
            part_mask = 0
            for u in verts:
                part_mask |= 1 << u
            chosen.append(verts)
            if rec(mask & ~part_mask):
                return True
            chosen.pop()
        return False

    if rec(host.full_mask()):
        packing = Packing.uniform(host.n, chosen, pattern)
        check = is_perfect_packing(host, packing)
        assert check.ok, check.reason
        return packing
    return None


@dataclass(frozen=True)
class MaxPackingResult:
    packing: Packing
    optimal: bool
    nodes: int


def max_packing(
    host: Graph | Digraph,
    pattern: PatternGraph | Sequence[PatternGraph],
    budget: SearchBudget | None = None,
) -> MaxPackingResult:
    """Packing maximising covered vertices, by branch-and-bound.

    Accepts one pattern or a family (mixed packings verify per part).  The
    optimality flag turns false when the node budget is exhausted; the best
    packing found so far is still returned.
    """
    patterns = [pattern] if isinstance(pattern, PatternGraph) else list(pattern)
    own_budget = budget if budget is not None else SearchBudget(None)
    # coverable[x] = largest sum of pattern orders that fits in x vertices
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
    best_parts: list[tuple[tuple[int, ...], PatternGraph]] = []
    best_cov = -1
    stack_parts: list[tuple[tuple[int, ...], PatternGraph]] = []
    exhausted = False

    def rec(mask: int, covered: int) -> None:
        nonlocal best_cov, best_parts
        own_budget.tick()
        remaining = mask.bit_count()
        bound = covered + coverable[remaining]
        if bound <= best_cov:
            return
        if covered > best_cov:
            best_cov = covered
            best_parts = list(stack_parts)
        if mask == 0:
            return
        v = (mask & -mask).bit_length() - 1
        for pat in patterns:
            for verts in enumerate_copies(host, pat, v, mask):
                part_mask = 0
                for u in verts:
                    part_mask |= 1 << u
                stack_parts.append((verts, pat))
                rec(mask & ~part_mask, covered + len(verts))
                stack_parts.pop()
        rec(mask & ~(1 << v), covered)  # leave v uncovered

    try:
        rec(host.full_mask(), 0)
    except BudgetExhausted:
        exhausted = True
    packing = Packing.tagged(host.n, best_parts)
    return MaxPackingResult(packing, optimal=not exhausted, nodes=own_budget.nodes)


def greedy_packing(
    host: Graph | Digraph,
    pattern: PatternGraph,
    order_policy: str = "index",
) -> Packing:
    """Maximal packing from a single greedy pass.

    Anchors are visited in the policy order; each uncovered anchor commits
    the first copy through it among uncovered vertices.  Later commits only
    remove candidates, so one pass yields an inextensible packing.
    """
    if order_policy == "index":
        order = list(range(host.n))
    elif order_policy in ("min-degree", "max-degree"):
        if isinstance(host, Digraph):
            deg = [host.out_degree(v) + host.in_degree(v) for v in range(host.n)]
        else:
            deg = [host.degree(v) for v in range(host.n)]
        sign = 1 if order_policy == "min-degree" else -1
        order = sorted(range(host.n), key=lambda v: (sign * deg[v], v))
    else:
        raise ValueError(f"unknown order policy {order_policy!r}")
    mask = host.full_mask()
    parts = []
    for anchor in order:
        if not mask >> anchor & 1:
            continue
        for verts in enumerate_copies(host, pattern, anchor, mask):
            for u in verts:
                mask &= ~(1 << u)
            parts.append(verts)
            break
    return Packing.uniform(host.n, parts, pattern)


def is_perfect_packing(
    host: Graph | Digraph,
    packing: Packing,
    universe: Iterable[int] | None = None,
) -> VerifyResult:
    """Check disjointness, coverage, and that each part spans its pattern.

    ``universe`` defaults to all host vertices; pass a subset to verify a
    perfect packing of an induced subgraph (e.g. host[M ∪ W]).
    """
    target = frozenset(range(host.n)) if universe is None else frozenset(universe)
    seen: set[int] = set()
    for idx, (part, pat) in enumerate(zip(packing.parts, packing.patterns)):
        for v in part:
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
        if spans_pattern(host, part, pat) is None:
            return VerifyResult(
                False, f"part {idx}: {tuple(part)} does not span {pat.name}"
            )
    if seen != target:
        missing = sorted(target - seen)
        return VerifyResult(False, f"coverage violated: {missing} uncovered")
    return VerifyResult(True)


def verify_parts(host: Graph | Digraph, packing: Packing) -> VerifyResult:
    """Disjointness and per-part spanning only (no coverage requirement)."""
    return is_perfect_packing(host, packing, universe=packing.covered())


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
        from .constructions import clique_pattern

        return Packing.uniform(g.n, classes, clique_pattern(r))
    return None
