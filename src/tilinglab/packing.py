"""Copy enumeration and exact packing search.

This module is the ground-truth oracle of the package: `find_perfect_packing`
(exhaustive backtracking) and `max_packing` (branch-and-bound) share one
explicit-stack search, whose exhaustion certifies NONE whichever uncovered
vertex it branches on; `is_perfect_packing` re-verifies every structure
any other module produces.  A perfect-packing search also stops at
certified barriers, which only a residual without a perfect packing meets:
a vertex with fewer neighbours than the pattern's least degree, or an
independent twin class too large for the pattern's independence number;
`barrier` names the one that holds at the root.  So NONE comes after
exhaustion or a certified barrier.  The search starts from a vertex mask, so
`perfect_parts_within` asks whether a vertex subset packs perfectly by
searching the host within it, with no induced copy and no id map;
`greedy_parts` is the greedy pass within a mask.
A vertex set is a mask (`graphs.mask` builds one, `graphs.bits` reads one
back), but for parts and copies, which are sorted tuples: the verifier
takes its universe as a mask and keeps the covered vertices as one.  The
search remembers the residuals it has finished, keyed by their counts in
the host's twin classes, so residuals that a permutation of host twins maps
onto each other are searched once; it finds the same packings, with the
same verdicts, as a search without the memo (within a mask as well, where
the host's classes may be finer than those of the induced subgraph).  A
host whose rows show it has no twins keys a residual by its mask, and no
twin partition is built.

A vertex set "spans" a pattern when the host contains the pattern as a
subgraph on that set (extra edges are fine).  Spanning tests, completion
masks and copy enumeration take one of three routes, chosen by the
pattern's classification: cliques and transitive tournaments keep their
own mask-based loops and closed forms (a clique spans when each vertex's
adjacency row holds the rest of the set, and the vertices completing a
joined set to a clique are its common neighbours), and every other
pattern goes through one search over the pattern's twin classes
(`PatternGraph.twin_classes`), which fills the classes of a complete
multipartite pattern as it fills any other.  That search drops a state as
soon as some class allows fewer host vertices than it still has room for;
such a state has no completion, so the copies and their order are those of
the search without the check.
Each of the three enumerators is one flat loop over an explicit stack.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

from .graphs import (
    Digraph, Graph, PatternGraph, TwinClasses, arc_rows, bits, mask, twin_partition
)


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


class Packing(NamedTuple):
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

    def coverage(self) -> int:
        return sum(len(part) for part in self.parts)

    def covered_mask(self) -> int:
        return mask(v for part in self.parts for v in part)

    def is_mixed(self) -> bool:
        return len({pat.name for pat in self.patterns}) > 1

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


class VerifyResult(NamedTuple):
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
    left = mask(remaining)
    order = []
    while remaining:
        pick = None
        for u in remaining:
            if d.out[u] & left == left ^ (1 << u):
                pick = u
                break
        if pick is None:
            return None
        order.append(pick)
        left ^= 1 << pick
        remaining.remove(pick)
    return order


# A state of the twin-class search holds, per pattern twin class, the room
# left, the mask of host vertices still allowed in it and the host vertices
# put in it.  The room and the allowed masks alone decide every completion;
# `_twin_advance` keeps only states in which every class allows at least as
# many vertices as its room.
_TwinState = tuple[list[int], list[int], list[int]]


def _twin_start(tw: TwinClasses, allowed: int) -> dict[object, _TwinState]:
    k = len(tw.classes)
    return {None: ([len(c) for c in tw.classes], [allowed] * k, [0] * k)}


def _twin_advance(
    tw: TwinClasses,
    rows: tuple[tuple[int, ...], tuple[int, ...]],
    states: dict[object, _TwinState],
    v: int,
    above: int,
) -> dict[object, _TwinState]:
    """The states after putting host vertex v in each class that allows it.

    Every allowed mask keeps only vertices in ``above``.  A successor in
    which some class allows fewer vertices than its room is dead and is
    dropped: every vertex put in a class later comes from its allowed mask,
    which only shrinks, so a dead state has no completion and dropping it
    changes no copy found, nor their order.  Equal states merge, and so do
    states that differ by a permutation of a swappable group.
    """
    fwd = rows[0][v] & above
    back = rows[1][v] & above
    keep = (above, fwd, back, fwd & back)
    bit = 1 << v
    need = tw.need  # record fields are read once per call, not per state
    groups = tw.groups
    out: dict[object, _TwinState] = {}
    for rooms, masks, members in states.values():
        for i, m in enumerate(masks):
            if not m & bit:
                continue
            nrooms = rooms.copy()
            nrooms[i] -= 1
            nmasks = []
            for x, c, room in zip(masks, need[i], nrooms):
                x &= keep[c]
                if x.bit_count() < room:
                    break
                nmasks.append(x)
            if len(nmasks) < len(masks):
                continue  # some class can no longer be filled
            if not nrooms[i]:
                nmasks[i] = 0
            pairs = list(zip(nrooms, nmasks))
            for a, b in groups:
                pairs[a:b] = sorted(pairs[a:b])
            key = tuple(pairs)
            if key not in out:
                nmembers = members.copy()
                nmembers[i] |= bit
                out[key] = (nrooms, nmasks, nmembers)
    return out


def _twin_copies(
    host: Graph | Digraph, pattern: PatternGraph, within: int, through: int | None
) -> Iterator[tuple[int, ...]]:
    """Canonical (ids-ascending, ``through`` first) enumeration of the sets
    spanning the pattern, carrying every live twin-class state of the
    partial set (`_twin_advance` drops the dead ones).

    The classes of a state may allow the same vertices, so a partial set is
    also cut when the union of all allowed masks is too small to finish it.
    A full class allows nothing, so at the last level that union is exactly
    the set of completing vertices.  One loop runs the whole search, one
    level per pass: ``cand`` holds the candidates left at the current level
    (none once it is cut or finished), and ``stack`` holds the states and
    candidates left at each level above it.
    """
    tw = pattern.twin_classes()
    rows = arc_rows(host)
    h = pattern.order
    states = _twin_start(tw, within)
    current: list[int] = []
    if through is not None:
        current.append(through)
        states = _twin_advance(tw, rows, states, through, ~(1 << through))
    stack: list[tuple[dict[object, _TwinState], int]] = []
    while True:
        cand = 0
        for _, masks, _ in states.values():
            for m in masks:
                cand |= m
        if len(current) + cand.bit_count() < h:
            cand = 0
        elif len(current) == h - 1:
            for v in bits(cand):
                yield tuple(sorted(current + [v]))
            cand = 0
        while not cand and stack:
            states, cand = stack.pop()
            current.pop()
        if not cand:
            return
        low = cand & -cand
        cand ^= low
        v = low.bit_length() - 1
        stack.append((states, cand))
        current.append(v)
        states = _twin_advance(tw, rows, states, v, -(2 << v))


def _joined(g: Graph, verts: Iterable[int], mask: int) -> bool:
    """True when every two of ``verts`` (the vertices of ``mask``) are adjacent."""
    adj = g.adj
    for u in verts:
        if adj[u] & mask != mask ^ (1 << u):
            return False
    return True


def _out_of_range(v: int, n: int) -> ValueError:
    return ValueError(f"vertex {v} out of range 0..{n - 1}")


def spans_pattern(
    host: Graph | Digraph, verts: Sequence[int], pattern: PatternGraph
) -> dict[int, int] | None:
    """Witness mapping if the vertex set spans the pattern, else None.

    Every vertex must be a host vertex (else ValueError)."""
    vs = sorted(set(verts))
    if vs and (vs[0] < 0 or vs[-1] >= host.n):
        raise _out_of_range(vs[0] if vs[0] < 0 else vs[-1], host.n)
    if len(vs) != pattern.order:
        return None
    if pattern.is_digraph != isinstance(host, Digraph):
        return None
    if pattern.transitive_order:
        order = transitive_order(host, vs)
        if order is None:
            return None
        return {i: v for i, v in enumerate(order)}
    vmask = mask(vs)
    if pattern.clique_order:
        return {i: v for i, v in enumerate(vs)} if _joined(host, vs, vmask) else None
    tw = pattern.twin_classes()
    rows = arc_rows(host)
    states = _twin_start(tw, vmask)
    for v in vs:
        states = _twin_advance(tw, rows, states, v, -(2 << v))
        if not states:
            return None
    _, _, members = next(iter(states.values()))
    return {p: u for cls, m in zip(tw.classes, members) for p, u in zip(cls, bits(m))}


def completion_mask(host: Graph | Digraph, pattern: PatternGraph, verts: Sequence[int]) -> int:
    """Bitmask of the host vertices w for which ``verts`` plus w spans the
    pattern, for h-1 distinct host vertices ``verts`` (else ValueError).

    Cliques and transitive tournaments have closed forms.  For K_r it is
    the common neighbourhood of ``verts``, when they are pairwise joined,
    else nothing.  For T_r, ``verts`` must be orderable, and then w fits
    exactly when ``verts`` splits into a set P before w and a set Q after
    it with an arc from every vertex of P to every vertex of Q (any subset
    of an orderable set is orderable).  So the mask is the union, over
    those of the 2^(h-1) splits that have these arcs, of the vertices with
    an arc from all of P and an arc to all of Q; arcs both ways are
    allowed anywhere.

    Every other pattern takes one run of the twin-class search over the
    whole host, which puts each vertex of ``verts`` in every class that
    allows it, in no order, as the ``through`` vertex of `_twin_copies`
    goes in.  Each surviving state has one slot left, and a full class
    allows nothing, so the union of the allowed masks is exactly the set
    of completing vertices.  No route puts a vertex of ``verts`` in the
    mask.
    """
    if pattern.is_digraph != isinstance(host, Digraph):
        raise ValueError("pattern and host kinds differ")
    if len(set(verts)) != len(verts) or len(verts) != pattern.order - 1:
        raise ValueError(
            f"{pattern.name} is completed from {pattern.order - 1} distinct vertices, "
            f"got {list(verts)}"
        )
    for v in verts:
        if not 0 <= v < host.n:
            raise _out_of_range(v, host.n)
    if pattern.clique_order:
        if not _joined(host, verts, mask(verts)):
            return 0
        fits = host.full_mask()
        for v in verts:
            fits &= host.adj[v]
        return fits
    if pattern.transitive_order:
        if transitive_order(host, verts) is None:
            return 0
        out, inn = host.out, host.inn
        whole, full = mask(verts), host.full_mask()
        fits = 0
        before = whole  # P: every submask of ``whole``, down to 0
        while True:
            after = whole ^ before
            between = full
            for v in verts:
                if before >> v & 1:
                    if out[v] & after != after:
                        break  # P -> Q incomplete
                    between &= out[v]
                else:
                    between &= inn[v]
            else:
                fits |= between
            if not before:
                return fits
            before = (before - 1) & whole
    tw = pattern.twin_classes()
    rows = arc_rows(host)
    states = _twin_start(tw, host.full_mask())
    for v in verts:
        states = _twin_advance(tw, rows, states, v, ~(1 << v))
    fits = 0
    for _, masks, _ in states.values():
        for m in masks:
            fits |= m
    return fits


# -- copy enumeration ---------------------------------------------------------


def _clique_copies(
    g: Graph, r: int, within: int, through: int | None
) -> Iterator[tuple[int, ...]]:
    """Vertex sets spanning K_r, each exactly once (ids ascending), in
    depth-first order over ascending vertex ids.  One loop runs the whole
    search: ``cand`` holds the candidates left at the current level (common
    neighbours of ``current`` above its last vertex), and ``stack`` holds
    those left at each level above it."""
    adj = g.adj
    if through is None:
        current, cand = [], within
    else:
        current, cand = [through], within & adj[through]
        if r == 1:
            yield (through,)
            return
    last = r - 1
    stack: list[int] = []
    while True:
        if len(current) == last:
            while cand:  # every candidate completes a copy
                low = cand & -cand
                cand ^= low
                yield tuple(sorted(current + [low.bit_length() - 1]))
        elif cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            stack.append(cand)
            current.append(v)
            cand &= adj[v]
            continue
        if not stack:
            return
        cand = stack.pop()
        current.pop()


def _transitive_copies(
    d: Digraph, r: int, within: int, through: int | None
) -> Iterator[tuple[int, ...]]:
    """Vertex sets spanning T_r, each exactly once (ids ascending), in
    depth-first order over ascending vertex ids, pruning any partial set
    that has already lost orderability.  One loop runs the whole search:
    ``cand`` holds the candidates left at the current level (the vertices of
    ``within`` above the last vertex of ``current`` and joined by an arc to
    every vertex of it, as no other can be ordered with it), and ``stack``
    holds those left at each level above it."""
    out, inn = d.out, d.inn
    if through is None:
        current, cand = [], within
    else:
        current, cand = [through], within & (out[through] | inn[through])
        if r == 1:
            yield (through,)
            return
    stack: list[int] = []
    while True:
        if cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            current.append(v)
            # one or two vertices joined by an arc are always orderable
            if len(current) < 3 or transitive_order(d, current) is not None:
                if len(current) < r:
                    stack.append(cand)
                    cand &= out[v] | inn[v]  # the level below: the same, joined to v
                    continue
                yield tuple(sorted(current))
            current.pop()
            continue
        if not stack:
            return
        cand = stack.pop()
        current.pop()


def enumerate_copies(
    host: Graph | Digraph,
    pattern: PatternGraph,
    through: int | None = None,
    within: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """A generator of every vertex set spanning the pattern, as a sorted tuple.

    ``through`` restricts to sets containing that vertex, which must be a
    host vertex (else ValueError, at the call); ``within`` is a bitmask
    restricting the host vertices considered, and its bits outside the host
    are ignored.  No set is yielded twice.  A caller that wants a witness
    mapping calls `spans_pattern` on the set.
    """
    if pattern.is_digraph != isinstance(host, Digraph):
        raise ValueError("pattern and host kinds differ")
    if through is not None and not 0 <= through < host.n:
        raise _out_of_range(through, host.n)
    if within is None:
        mask = host.full_mask()
    else:  # the search's masks lie inside the host: skip building its full mask
        mask = within & host.full_mask() if within >> host.n else within
    if pattern.order > host.n or through is not None and not mask >> through & 1:
        return (verts for verts in ())
    if pattern.transitive_order:
        return _transitive_copies(host, pattern.order, mask, through)
    if pattern.clique_order:
        return _clique_copies(host, pattern.order, mask, through)
    return _twin_copies(host, pattern, mask, through)


# -- exact solvers ------------------------------------------------------------


def _search(
    host: Graph | Digraph,
    patterns: Sequence[PatternGraph],
    budget: SearchBudget | None,
    residual: int,
    coverable: list[int] | None,
) -> Iterator[tuple[tuple[tuple[int, ...], PatternGraph | None], ...]]:
    """Depth-first search over residual vertex masks from ``residual``,
    yielding the steps down to each packing of host[residual] that covers
    more vertices than any before it: a part as (part, pattern), a vertex
    left uncovered as ((v,), None), recorded only while a choice point is
    open (no later pop replays it otherwise).  Every node ticks the budget,
    if any, and branches on one uncovered vertex v, chosen here alone (the
    lowest): every copy through v, pattern by pattern, then, given
    ``coverable`` (not None), leaving v uncovered, so exhaustion certifies
    NONE whichever v is chosen.  Without it only a perfect packing counts;
    with it a node is pruned when its covered count plus
    ``coverable[uncovered]`` cannot beat the incumbent, and so is a popped
    choice point, with all its remaining branches.  The stack holds only
    open choice points, each with its v: a one-part look-ahead finds a
    node's last branch, and the node is popped before the search descends
    into it.

    A node is also pruned when a finished residual with the same key (see
    `_residual_key`) had at least its covered count: a permutation of host
    twins maps one residual onto the other, and ancestors have larger
    residuals, so the earlier one was searched to the end and nothing here
    can beat the incumbent.  Residuals are remembered when the search
    backtracks past them, by replaying the steps taken below the popped
    choice point; a search that never backtracks keeps no memo.

    Without ``coverable`` the search also stops at certified barriers,
    which only a residual with no perfect packing meets, from the same
    first backtrack on: it ends when a vertex of the root residual has too
    few neighbours in it (`_local_barrier`), and prunes each node and each
    popped choice point whose key shows the space barrier (`_residual_key`).
    So NONE comes after exhaustion or a certified barrier, and every
    packing found is the one the search without barriers finds first."""
    options = list(patterns) + ([] if coverable is None else [None])  # None skips v
    steps: list[tuple[tuple[int, ...], PatternGraph | None]] = []
    stack = []  # (residual, covered, len(steps), v, option, its copies, its next part)
    root = residual
    covered = 0
    best = residual.bit_count() - 1 if coverable is None else -1
    memo: dict = {}  # residual key -> most covered it was finished with
    key = space = None
    while True:
        if budget is not None:
            budget.tick()
        verts = None
        if (coverable is None or covered + coverable[residual.bit_count()] > best) and (
            key is None
            or memo.get(rkey := key(residual), -1) < covered
            and not (space and space(rkey, residual))
        ):
            if covered > best:
                best = covered
                yield tuple(steps)
            if residual:
                v = (residual & -residual).bit_length() - 1  # the branch vertex
                k = 0  # the first option inline: one call fewer per node
                copies = enumerate_copies(host, options[0], v, residual)
                verts = next(copies, None)
                if verts is None and len(options) > 1:
                    k, copies, verts = _open(host, options, 1, residual, v)
        if verts is None:
            # drop the choice points that can no longer beat the incumbent
            while stack and coverable is not None and (
                stack[-1][1] + coverable[stack[-1][0].bit_count()] <= best
            ):
                stack.pop()
            if stack and key is None:  # the first backtrack
                perfect = patterns[0] if coverable is None else None
                key, space = _residual_key(host, perfect)
                if perfect is not None and _local_barrier(host, perfect, root) is not None:
                    return
            while stack and space and space(key(stack[-1][0]), stack[-1][0]):
                stack.pop()
            if not stack:
                return
            top = stack.pop()
            _remember(memo, key, top, steps)
            residual, covered, depth, v, k, copies, verts = top
            del steps[depth:]
        pat = options[k]
        following = next(copies, None)
        if following is None and k + 1 < len(options):
            k, copies, following = _open(host, options, k + 1, residual, v)
        if following is not None:
            stack.append((residual, covered, len(steps), v, k, copies, following))
        residual &= ~mask(verts)
        if pat is not None:
            covered += len(verts)
        if pat is not None or stack:  # only a pop replays a skipped vertex
            steps.append((verts, pat))


def _remember(memo: dict, key, top: tuple, steps: list) -> None:
    """Record as finished, with its covered count, every residual below the
    choice point ``top`` on the path down to the finished last node, which
    has no open choice point, by replaying the steps taken below ``top``."""
    m, c, depth = top[:3]
    for verts, pat in steps[depth:]:
        m &= ~mask(verts)
        if pat is not None:
            c += len(verts)
        k = key(m)
        if memo.get(k, -1) < c:
            memo[k] = c


def _residual_key(host: Graph | Digraph, pattern: PatternGraph | None) -> tuple:
    """(key, space) from one twin partition of the host.

    ``key`` gives the memo key of a residual mask: its vertices outside
    nontrivial twin classes, plus how many it keeps of each such class.
    Residuals with equal keys map onto each other under a permutation of
    twins, which is a host automorphism.  A host without twins keys a
    residual by its mask: `_twin_free` tells such a host by comparing its
    rows, as they are and with each vertex's own bit added, and then no
    twin partition is built.

    ``space(k, m)`` reads the space barrier of ``pattern`` off the key
    ``k`` of a residual m: the count of some independent twin class I,
    when |I ∩ m|·h > α·|m| for the pattern's order h and independence
    number α.  A copy meets I in at most α vertices and a perfect packing
    of m has |m|/h copies, so m has none.  It is None (no test) without a
    pattern, for a pattern whose α is not read off its classification (see
    `_independence`), and for a host without an independent nontrivial
    twin class, so such a host pays nothing per node."""
    if _twin_free(host):
        return (lambda m: m), None
    classes = []
    alone = 0
    independent = []  # places in the key of the independent classes' counts
    fwd, back = arc_rows(host)
    for c in twin_partition(host):
        cmask = mask(c)
        if len(c) > 1:
            classes.append(cmask)
            if not (fwd[c[0]] | back[c[0]]) >> c[1] & 1:  # twins: one pair tells
                independent.append(len(classes))
        else:
            alone |= cmask
    alpha = pattern and _independence(pattern)
    space = None
    if alpha and independent:
        h = pattern.order

        def space(k: tuple, m: int) -> int:
            room = alpha * m.bit_count()
            return next((k[j] for j in independent if k[j] * h > room), 0)

    return (lambda m: (m & alone, *[(m & c).bit_count() for c in classes])), space


def _twin_free(host: Graph | Digraph) -> bool:
    """True when the host has no two twins (see `graphs.twin_partition`).

    Twins have equal rows, or equal rows once each has its own bit added
    (arcs both ways between them).  So a host whose forward rows are
    distinct, and distinct again with each vertex's own bit added, has no
    twins of either kind: two set builds.  Only a digraph can still be
    twin-free when this fails (equal out-rows, different in-rows); it is
    then decided on each vertex's out- and in-row together, one int of 2n
    bits."""
    fwd, back = arc_rows(host)
    n = host.n
    if _distinct_rows(fwd, 1, n):
        return True
    if fwd is back:
        return False
    return _distinct_rows([f | b << n for f, b in zip(fwd, back)], 1 | 1 << n, n)


def _distinct_rows(rows: Sequence[int], own: int, n: int) -> bool:
    """True when the n rows are distinct, and distinct again with
    ``own << v`` added to row v."""
    return len(set(rows)) == n and len({r | own << v for v, r in enumerate(rows)}) == n


def _independence(pattern: PatternGraph) -> int | None:
    """The independence number of a clique, transitive tournament or complete
    multipartite pattern (its largest part), else None: no other pattern's
    is computed."""
    if pattern.clique_order or pattern.transitive_order:
        return 1
    return pattern.multipartite[0] if pattern.multipartite else None


def _local_barrier(host: Graph | Digraph, pattern: PatternGraph, residual: int) -> int | None:
    """The lowest vertex of ``residual`` with fewer neighbours in it (by an
    arc either way) than the pattern's least degree δ(H), or None.  Such a
    vertex is in no copy within the residual.  Counting over every host row
    first gives a lower bound of the least residual degree, so a residual
    with no such vertex costs one popcount per row (and one AND, unless it
    is the whole host)."""
    fwd, back = arc_rows(host)
    rows = fwd if fwd is back else tuple(map(int.__or__, fwd, back))
    prow, pback = arc_rows(pattern.base)
    least = min(map(int.bit_count, prow if prow is pback else map(int.__or__, prow, pback)))
    inside = rows if residual == host.full_mask() else map(residual.__and__, rows)
    if min(map(int.bit_count, inside), default=least) >= least:
        return None
    return next((v for v in bits(residual) if (rows[v] & residual).bit_count() < least), None)


def barrier(host: Graph | Digraph, pattern: PatternGraph, within: int) -> str | None:
    """The certified barrier that shows at once that host[within] has no
    perfect packing, named, or None: the pattern order not dividing its
    size, a vertex in no copy by its degree (`_local_barrier`), or an
    independent twin class too large for the pattern (`_residual_key`'s
    space test), the checks the exact search makes."""
    size = within.bit_count()
    if size % pattern.order:
        return f"divisibility, {size} vertices"
    v = _local_barrier(host, pattern, within)
    if v is not None:
        return f"local vertex {v}"
    key, space = _residual_key(host, pattern)
    count = space and space(key(within), within)
    if count:
        return f"space, an independent twin class of {count} of {size} vertices"
    return None


def _open(host: Graph | Digraph, options: list, k: int, mask: int, v: int) -> tuple:
    """(option, its copies, first part) of the first branch through v from
    option k on at the node of ``mask``; the part is None when none is left."""
    for k in range(k, len(options)):
        pat = options[k]
        copies = iter([(v,)]) if pat is None else enumerate_copies(host, pat, v, mask)
        first = next(copies, None)
        if first is not None:
            return k, copies, first
    return k, None, None


def find_perfect_packing(
    host: Graph | Digraph,
    pattern: PatternGraph,
    budget: SearchBudget | None = None,
) -> Packing | None:
    """Exact perfect-packing decision by backtracking.

    Returns a verified packing, or None after exhaustion or a certified
    barrier, either of which certifies nonexistence whichever uncovered
    vertex the search branches on (`barrier` names a barrier of the whole
    host).  Raises BudgetExhausted if a node budget runs out (never
    silently reported as None).
    """
    parts = perfect_parts_within(host, pattern, host.full_mask(), budget)
    return None if parts is None else Packing(host.n, tuple(parts), (pattern,) * len(parts))


def perfect_parts_within(
    host: Graph | Digraph, pattern: PatternGraph, within: int, budget: SearchBudget | None
) -> list[tuple[int, ...]] | None:
    """The verified parts of a perfect packing of host[within], for a mask
    ``within`` of host vertices; None at once when the pattern order does
    not divide its size, else after exhaustion or a certified barrier.  The
    search runs on the host from the residual ``within``, so it finds the packing
    `find_perfect_packing` finds on the induced subgraph, in host ids.
    Raises BudgetExhausted, and ValueError when a nonempty ``within`` meets
    a pattern of the other kind.
    """
    if within.bit_count() % pattern.order:
        return None
    for found in _search(host, (pattern,), budget, within, None):
        packing = Packing.uniform(host.n, (verts for verts, _ in found), pattern)
        # the whole host is verified without a universe test per vertex
        check = is_perfect_packing(host, packing, None if within == host.full_mask() else within)
        assert check.ok, check.reason
        return list(packing.parts)
    return None


class MaxPackingResult(NamedTuple):
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
    best: tuple = ()
    optimal = True
    try:
        # the loop variable keeps the last incumbent if the budget runs out
        for best in _search(host, patterns, own_budget, host.full_mask(), coverable):
            pass
    except BudgetExhausted:
        optimal = False
    parts = (step for step in best if step[1] is not None)  # drop the skipped vertices
    return MaxPackingResult(Packing.tagged(host.n, parts), optimal, own_budget.nodes)


def greedy_packing(host: Graph | Digraph, pattern: PatternGraph) -> Packing:
    """Maximal packing from a single greedy pass over the whole host."""
    return Packing.uniform(host.n, greedy_parts(host, pattern, host.full_mask()), pattern)


def greedy_parts(
    host: Graph | Digraph, pattern: PatternGraph, within: int
) -> list[tuple[int, ...]]:
    """The parts of one greedy pass over host[within], for a mask ``within``
    of host vertices.  Anchors are visited in index order; each uncovered
    anchor commits the first copy through it among uncovered vertices.
    Later commits only remove candidates, so the parts are inextensible.
    """
    parts = []
    for anchor in bits(within):
        if not within >> anchor & 1:
            continue
        for verts in enumerate_copies(host, pattern, anchor, within):
            within &= ~mask(verts)
            parts.append(verts)
            break
    return parts


def is_perfect_packing(
    host: Graph | Digraph,
    packing: Packing,
    universe: int | None = None,
) -> VerifyResult:
    """Check disjointness, coverage, and that each part spans its pattern.

    ``universe`` is a vertex mask and defaults to all host vertices; pass
    a subset's mask to verify a perfect packing of an induced subgraph
    (e.g. host[M ∪ W]); a negative ``universe`` is a ValueError.  Every
    failure gives the reason of the first vertex or part at fault.
    """
    if universe is not None and universe < 0:
        raise ValueError(f"universe {universe} is not a vertex mask")
    return _verify(host, packing, universe, True)


def verify_parts(host: Graph | Digraph, packing: Packing) -> VerifyResult:
    """Disjointness and per-part spanning only (no coverage requirement)."""
    return _verify(host, packing, None, False)


def _verify(
    host: Graph | Digraph, packing: Packing, universe: int | None, cover: bool
) -> VerifyResult:
    """`is_perfect_packing`, with the coverage test only when ``cover``.
    The covered vertices are one bitmask, built as the parts are checked;
    with no universe, a vertex in range needs no membership test."""
    n = host.n
    directed = isinstance(host, Digraph)
    covered = 0
    for idx, (part, pat) in enumerate(zip(packing.parts, packing.patterns)):
        before = covered
        for v in part:
            if v is True or v is False:  # a bool is no vertex, as in graphs.check_vertex
                return VerifyResult(False, f"part {idx}: vertex {v!r} is not an integer")
            if not 0 <= v < n:
                return VerifyResult(False, f"part {idx}: vertex {v} out of range")
            bit = 1 << v
            if universe is not None and not universe & bit:
                return VerifyResult(False, f"part {idx}: vertex {v} outside universe")
            if covered & bit:
                return VerifyResult(False, f"disjointness violated at vertex {v}")
            covered |= bit
        if len(part) != pat.order:
            return VerifyResult(
                False, f"part {idx}: size {len(part)} != pattern order {pat.order}"
            )
        # the part's vertices are distinct host vertices: test spanning on them directly
        if pat.is_digraph != directed:
            spans = False
        elif pat.clique_order:
            spans = _joined(host, part, covered ^ before)
        elif pat.transitive_order:
            spans = transitive_order(host, part) is not None
        else:
            spans = spans_pattern(host, part, pat) is not None
        if not spans:
            return VerifyResult(
                False, f"part {idx}: {tuple(part)} does not span {pat.name}"
            )
    target = host.full_mask() if universe is None else universe
    if cover and covered != target:  # every covered vertex is in the target
        missing = list(bits(target & ~covered))
        return VerifyResult(False, f"coverage violated: {missing} uncovered")
    return VerifyResult(True)
