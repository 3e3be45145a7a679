"""Pattern-path connecting structures and absorbing families.

A pattern-path of length t chains t blocks of h-1 vertices through t+1
connectors so that each block forms the pattern with both of its adjacent
connectors.  Its interior therefore admits a perfect packing no matter
which endpoint is kept, which is exactly the connecting property the
absorbing-set construction needs: a vertex set X absorbs a vertex w when
host[X ∪ {w}] has a perfect packing.

The absorbing family is built by randomized greedy selection of disjoint
candidate gadgets, scored by how many sampled vertex pairs they absorb on
both sides, and every absorption performed later is re-verified exactly by
the solver.  One test, `_absorbed`, answers which vertices a gadget
absorbs, for scoring and for absorption alike.  A gadget of t*h-1 vertices
plus one vertex is a single pattern copy when t = 1, so the answer is then
one completion mask (`packing.completion_mask`: every vertex that completes
it to a copy, which for a clique or transitive tournament is a union of a
few intersections of host rows); for t >= 2 the gadget plus a vertex must
be packed, and each vertex asked about takes an exact search.  Every
subset question is one search of the host within the subset's vertex mask
(`packing.perfect_parts_within`).  The family keeps a multiple
of |pattern| many gadgets so that the idle part of the family always has
the right divisibility, and the union is solver-checked for a perfect
packing at build time.  The union, the absorbing set M, is a vertex mask
(`AbsorbingFamily.M`), and `absorb` checks the leftover W against it and
verifies its packing within M ∪ W as masks too.

`pipeline` chains family construction, an almost-perfect packing of the
rest of the host (greedy plus the exchange engine where the pattern is a
clique or transitive tournament), and final absorption of the leftover.
The rest is packed within its vertex mask, like every subset question:
the exchange runs on the host's rows cut down to the mask, so it ranks
the vertices of the rest by their degrees inside it, with no induced copy
and no id map.
"""

from __future__ import annotations

import random
from typing import Iterator, NamedTuple, Sequence

from .constructions import clique_pattern, pattern_power, transitive_pattern
from .exchange import swap_to_fixpoint
from .graphs import Digraph, Graph, PatternGraph, bits, check_vertex, mask
from .packing import (
    BudgetExhausted,
    Packing,
    SearchBudget,
    VerifyResult,
    completion_mask,
    enumerate_copies,
    greedy_parts,
    is_perfect_packing,
    perfect_parts_within,
    spans_pattern,
)
from .util import split_seed


# -- pattern paths -----------------------------------------------------------


class HPath(NamedTuple):
    """Blocks X_1..X_t of size h-1 with connectors y_1..y_{t+1}.

    Each X_i spans the pattern together with y_i and with y_{i+1}; the
    endpoints are y_1 and y_{t+1} and t is the length.  In a truncated
    path both endpoints are None, so its endsets are X_1 and X_t.
    """

    pattern: PatternGraph
    blocks: tuple[tuple[int, ...], ...]
    connectors: tuple[int | None, ...]

    @property
    def length(self) -> int:
        return len(self.blocks)

    @property
    def endpoints(self) -> tuple[int | None, int | None]:
        return self.connectors[0], self.connectors[-1]

    def vertices(self) -> list[int]:
        out = [y for y in self.connectors if y is not None]
        for b in self.blocks:
            out.extend(b)
        return out

    def interior(self) -> list[int]:
        x, y = self.endpoints
        return [v for v in self.vertices() if v != x and v != y]


def is_h_path(host: Graph | Digraph, p: HPath) -> VerifyResult:
    """Check sizes, distinctness and the spanning condition of every block
    with each connector beside it; a truncated path has none at its ends."""
    h = p.pattern.order
    t = p.length
    if t < 1:
        return VerifyResult(False, "length must be >= 1")
    if len(p.connectors) != t + 1:
        return VerifyResult(False, f"expected {t + 1} connectors")
    if (p.endpoints[0] is None) != (p.endpoints[1] is None):
        return VerifyResult(False, "a truncated path misses both endpoints")
    if None in p.endpoints and t < 2:
        return VerifyResult(False, "truncated path needs length >= 2")
    if None in p.connectors[1:-1]:
        return VerifyResult(False, "only the endpoints may be missing")
    for i, block in enumerate(p.blocks, start=1):
        if len(block) != h - 1:
            return VerifyResult(False, f"block {i} has size {len(block)} != {h - 1}")
    verts = p.vertices()
    if len(set(verts)) != len(verts):
        dup = sorted(v for v in set(verts) if verts.count(v) > 1)[0]
        return VerifyResult(False, f"vertex {dup} repeated")
    for i, block in enumerate(p.blocks):
        for y in (p.connectors[i], p.connectors[i + 1]):
            if y is not None and spans_pattern(host, block + (y,), p.pattern) is None:
                return VerifyResult(
                    False,
                    f"block {i + 1} with connector {y} does not span {p.pattern.name}",
                )
    return VerifyResult(True)


def truncate_path(p: HPath) -> HPath:
    """Drop the two endpoints; the result is the truncated path of p."""
    return HPath(p.pattern, p.blocks, (None,) + p.connectors[1:-1] + (None,))


def concat_paths(p1: HPath, p2: HPath) -> HPath:
    """Join paths sharing one endpoint; lengths add, outer endpoints remain."""
    if p1.pattern != p2.pattern:
        raise ValueError("patterns differ")
    if p1.connectors[-1] is None or p1.connectors[-1] != p2.connectors[0]:
        raise ValueError(
            f"right endpoint {p1.connectors[-1]} != left endpoint {p2.connectors[0]}"
        )
    shared = p1.connectors[-1]
    s1 = set(p1.vertices()) - {shared}
    s2 = set(p2.vertices()) - {shared}
    overlap = s1 & s2
    if overlap:
        raise ValueError(f"paths share vertices {sorted(overlap)} besides the endpoint")
    return HPath(
        p1.pattern,
        p1.blocks + p2.blocks,
        p1.connectors + p2.connectors[1:],
    )


def length1_connectors(
    host: Graph | Digraph,
    pattern: PatternGraph,
    x: int,
    y: int,
    cap: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """Sets X with X+{x} and X+{y} both spanning the pattern, x,y not in X.

    Exhaustive (each qualifying set exactly once) up to the optional cap.
    """
    if x == y:
        raise ValueError("endpoints must differ")
    count = 0
    mask = host.full_mask() & ~(1 << y)
    for verts in enumerate_copies(host, pattern, through=x, within=mask):
        block = tuple(v for v in verts if v != x)
        if spans_pattern(host, block + (y,), pattern) is None:
            continue
        yield block
        count += 1
        if cap is not None and count >= cap:
            return


def auxiliary_graph(
    host: Graph | Digraph, pattern: PatternGraph, beta_count: int = 1
) -> Graph:
    """Graph on the host's vertices joining pairs with many length-1 paths.

    xy is an edge exactly when at least beta_count connector sets link x
    and y.  Materialised explicitly so connecting-path search is a plain
    path search plus lifting.
    """
    if beta_count < 1:
        raise ValueError("beta_count >= 1 required")
    edges = []
    for x in range(host.n):
        for y in range(x + 1, host.n):
            hits = 0
            for _ in length1_connectors(host, pattern, x, y, cap=beta_count):
                hits += 1
            if hits >= beta_count:
                edges.append((x, y))
    return Graph(host.n, edges)


def _aux_paths(
    aux: Graph, x: int, y: int, t: int
) -> Iterator[tuple[int, ...]]:
    """Simple x-y paths with exactly t edges, in lexicographic DFS order.

    One loop runs the search: ``stack`` holds, per vertex of ``path``, an
    iterator over its neighbours not yet tried."""
    if t < 1:
        return
    path = [x]
    used = {x}
    stack = [iter(aux.neighbors(x))]
    while stack:
        u = next(stack[-1], None)
        if u is None:
            stack.pop()
            used.remove(path.pop())
        elif u in used or (u == y) != (len(path) == t):
            continue
        elif len(path) == t:
            yield (*path, u)
        else:
            path.append(u)
            used.add(u)
            stack.append(iter(aux.neighbors(u)))


def find_connecting_path(
    host: Graph | Digraph,
    pattern: PatternGraph,
    x: int,
    y: int,
    t: int,
    beta_count: int = 1,
) -> HPath | None:
    """A pattern-path of length t from x to y, or None after exhausting lifts.

    Walks the auxiliary graph for x-y paths of length t, then lifts each
    one to vertex-disjoint connector blocks by backtracking over the
    connector streams, one stream per block placed and one for the next.
    """
    if x == y:
        raise ValueError("endpoints must differ")
    if not (0 <= x < host.n and 0 <= y < host.n):
        raise ValueError(f"endpoints must be vertices 0..{host.n - 1}")
    if t < 1:
        raise ValueError("t >= 1 required")
    aux = auxiliary_graph(host, pattern, beta_count)
    for waypoints in _aux_paths(aux, x, y, t):
        forbidden = set(waypoints)
        blocks: list[tuple[int, ...]] = []
        streams = [length1_connectors(host, pattern, x, waypoints[1])]
        while streams and len(blocks) < t:
            block = next(streams[-1], None)
            if block is None:
                streams.pop()
                if blocks:
                    forbidden.difference_update(blocks.pop())
            elif not any(v in forbidden for v in block):
                blocks.append(block)
                forbidden.update(block)
                i = len(blocks)
                if i < t:
                    streams.append(length1_connectors(host, pattern, waypoints[i], waypoints[i + 1]))
        if blocks:
            path = HPath(pattern, tuple(blocks), waypoints)
            check = is_h_path(host, path)
            assert check.ok, check.reason
            return path
    return None


# -- clique-path star blow-ups ------------------------------------------------


def clique_path(r: int, t: int) -> tuple[Graph, HPath]:
    """The standalone minimal K_r-path of length t (exactly the required
    cliques, nothing more)."""
    if r < 2 or t < 1:
        raise ValueError("r >= 2 and t >= 1 required")
    connectors = []
    blocks = []
    nxt = 0
    connectors.append(nxt)
    nxt += 1
    for _ in range(t):
        blocks.append(tuple(range(nxt, nxt + r - 1)))
        nxt += r - 1
        connectors.append(nxt)
        nxt += 1
    edges = []
    for i, block in enumerate(blocks):
        group = list(block)
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                edges.append((group[a], group[b]))
        for y in (connectors[i], connectors[i + 1]):
            for u in group:
                edges.append((y, u))
    g = Graph(nxt, edges)
    path = HPath(clique_pattern(r), tuple(blocks), tuple(connectors))
    check = is_h_path(g, path)
    assert check.ok, check.reason
    return g, path


class StarBlowup(NamedTuple):
    """The h-expanded clique path: blocks become balanced multipartite
    stacks, inner connectors become h-sets, the second-to-last connector a
    (2h-1)-set, and the two endpoints stay single vertices (absent in the
    truncated variant).

    ``x_blocks[i]`` lists the h(r-1) vertices replacing block i, grouped in
    runs of h per original block vertex; ``y_blocks[i]`` the set replacing
    connector i (empty at the ends when truncated).
    """

    graph: Graph
    r: int
    t: int
    h: int
    x_blocks: tuple[tuple[int, ...], ...]
    y_blocks: tuple[tuple[int, ...], ...]
    truncated: bool

    def order(self) -> int:
        return self.graph.n


def _build_star_blowup(r: int, t: int, h: int, truncated: bool) -> StarBlowup:
    if r + 1 < 3 or t < 3:
        raise ValueError("regime violated: need r >= 2 and t >= 3")
    if h < 1:
        raise ValueError("h >= 1 required")
    nxt = 0
    y_blocks: list[tuple[int, ...]] = []
    x_blocks: list[tuple[int, ...]] = []
    for i in range(1, t + 2):  # connector slots y_1..y_{t+1}
        if i == 1 or i == t + 1:
            size = 0 if truncated else 1
        elif i == t:
            size = 2 * h - 1
        else:
            size = h
        y_blocks.append(tuple(range(nxt, nxt + size)))
        nxt += size
        if i <= t:
            x_blocks.append(tuple(range(nxt, nxt + h * (r - 1))))
            nxt += h * (r - 1)
    edges = []
    for block in x_blocks:
        # K_{r-1}^h inside the block: classes are the h-runs
        for a in range(len(block)):
            for b in range(a + 1, len(block)):
                if a // h != b // h:
                    edges.append((block[a], block[b]))
    for i in range(t):
        around = y_blocks[i] + y_blocks[i + 1]
        for y in around:
            for u in x_blocks[i]:
                edges.append((y, u))
    return StarBlowup(
        Graph(nxt, edges), r, t, h, tuple(x_blocks), tuple(y_blocks), truncated
    )


def star_blowup(p: HPath, h: int) -> StarBlowup:
    """Expand a clique path by h; by the size law the result has hrt+1
    vertices."""
    r = p.pattern.clique_order
    if not r:
        raise ValueError("star blow-up needs a clique pattern path")
    return _build_star_blowup(r, p.length, h, truncated=False)


def truncated_star_blowup(p: HPath, h: int) -> StarBlowup:
    """The truncated variant, with hrt-1 vertices."""
    r = p.pattern.clique_order
    if not r:
        raise ValueError("star blow-up needs a clique pattern path")
    return _build_star_blowup(r, p.length, h, truncated=True)


def q_prime(sb: StarBlowup) -> StarBlowup:
    """Attach fresh endpoint vertices joined to the two endsets of a
    truncated blow-up; the result is a full pattern-path again."""
    if not sb.truncated:
        raise ValueError("q_prime applies to truncated blow-ups")
    n = sb.graph.n
    x_new, y_new = n, n + 1
    edges = sb.graph.pairs()
    edges.extend((x_new, u) for u in sb.x_blocks[0])
    edges.extend((y_new, u) for u in sb.x_blocks[-1])
    y_blocks = list(sb.y_blocks)
    y_blocks[0] = (x_new,)
    y_blocks[-1] = (y_new,)
    return StarBlowup(
        Graph(n + 2, edges),
        sb.r,
        sb.t,
        sb.h,
        sb.x_blocks,
        tuple(y_blocks),
        truncated=False,
    )


def _repartition(sb: StarBlowup) -> HPath:
    """Regroup an expanded path into blocks of hr-1 plus single connectors.

    Every inner connector set donates h-1 vertices to the block on its
    left and keeps one as the new connector; the (2h-1)-set before the
    last block feeds both of the last two blocks.
    """
    r, t, h = sb.r, sb.t, sb.h
    donated: list[tuple[int, ...]] = [()] * t  # Y'_1..Y'_t (0-based i-1)
    conns: dict[int, int] = {}
    for i in range(2, t):  # inner sets y_2..y_{t-1}
        ys = sb.y_blocks[i - 1]
        donated[i - 2] = ys[: h - 1]
        conns[i] = ys[h - 1]
    yt = sb.y_blocks[t - 1]  # the (2h-1)-set at slot y_t
    donated[t - 2] = yt[: h - 1]
    donated[t - 1] = yt[h - 1 : 2 * h - 2]
    conns[t] = yt[2 * h - 2]
    blocks = tuple(
        tuple(sorted(sb.x_blocks[i] + donated[i])) for i in range(t)
    )
    pattern = PatternGraph(pattern_power("K", r, h), name=f"K{r}^{h}")
    inner = tuple(conns[i] for i in range(2, t + 1))
    if sb.truncated:
        return HPath(pattern, blocks, (None,) + inner + (None,))
    return HPath(pattern, blocks, (sb.y_blocks[0][0],) + inner + (sb.y_blocks[t][0],))


def verify_star_blowup(sb: StarBlowup) -> VerifyResult:
    """The expanded path must verify as a path of the h-blown pattern
    after regrouping; any missing cross edge is reported."""
    expected = sb.h * sb.r * sb.t + (-1 if sb.truncated else 1)
    if sb.order() != expected:
        return VerifyResult(
            False, f"order {sb.order()} != {expected} (size law violated)"
        )
    return is_h_path(sb.graph, _repartition(sb))


# -- absorbing families --------------------------------------------------------

# vertex pairs sampled to score candidate gadgets, how many of them a
# candidate must absorb on both sides to become a gadget, and the node budget
# of the check that the union of the gadgets packs perfectly
_PAIR_SAMPLES = 24
_PAIR_THRESHOLD = 1
_IDLE_BUDGET = 2_000_000


def _absorbed(
    host: Graph | Digraph, pattern: PatternGraph, verts: tuple[int, ...], among: int
) -> int:
    """Mask of the vertices w of ``among``, outside ``verts``, for which
    host[verts + (w,)] packs perfectly.  When ``verts`` misses one vertex of
    a single copy this is one completion mask; otherwise each such w takes
    one exact search of the host within ``verts`` and w."""
    vmask = mask(verts)
    among &= ~vmask
    if not among:
        return 0
    if len(verts) == pattern.order - 1:
        return completion_mask(host, pattern, verts) & among
    fits = 0
    for w in bits(among):
        if perfect_parts_within(host, pattern, vmask | 1 << w, None) is not None:
            fits |= 1 << w
    return fits


def is_absorbing_for(
    host: Graph | Digraph,
    pattern: PatternGraph,
    S: Sequence[int],
    Q: Sequence[int],
) -> bool:
    """Accept iff host[S] and host[S ∪ Q] both have perfect packings."""
    for v in [*S, *Q]:
        check_vertex(v, host.n)
    s = mask(S)
    q = mask(Q)
    if s & q:
        raise ValueError(f"S and Q intersect: {list(bits(s & q))}")
    if perfect_parts_within(host, pattern, s, None) is None:
        return False
    return perfect_parts_within(host, pattern, s | q, None) is not None


class FamilyConstructionError(RuntimeError):
    """Absorbing-family construction failed; the message carries diagnostics."""


class AbsorbingGadget(NamedTuple):
    verts: tuple[int, ...]
    pairs_checked: int


class AbsorbingFamily(NamedTuple):
    """Disjoint gadget sets whose union is the absorbing set M, a vertex mask.

    Each gadget has t*h-1 vertices, so a gadget plus one absorbed vertex
    packs perfectly; the gadget count is a multiple of h so the idle part
    of M keeps pattern divisibility, and a perfect packing of host[M] is
    verified at build time.
    """

    gadgets: tuple[AbsorbingGadget, ...]
    params: dict
    seed: int

    @property
    def M(self) -> int:
        """The absorbing set M, the union of the gadgets, as a vertex mask."""
        return mask(v for g in self.gadgets for v in g.verts)

    def capacity(self) -> int:
        return len(self.gadgets)

    def to_json_obj(self) -> dict:
        return {
            "M": list(bits(self.M)),
            "gadgets": [
                {"verts": list(g.verts), "pairs_checked": g.pairs_checked}
                for g in self.gadgets
            ],
            "params": dict(self.params),
            "seed": self.seed,
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "AbsorbingFamily":
        """The family of a `to_json_obj` object, whose "M" is not read.  A
        missing key, a value of the wrong type or a ``pairs_checked`` that
        `int` refuses (JSON reads 1e400 as ``inf``) is a ValueError; the
        vertices are checked where the family is used."""
        try:
            gadgets = tuple(
                AbsorbingGadget(tuple(g["verts"]), int(g["pairs_checked"]))
                for g in obj["gadgets"]
            )
            return AbsorbingFamily(gadgets, obj.get("params", {}), obj.get("seed", 0))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"bad family file: {exc}") from exc


def _check_family_counts(t: int, sample_size: int, max_gadgets: int | None) -> None:
    """Raise ValueError for a ``t``, ``sample_size`` or given ``max_gadgets``
    below 1."""
    for name, value in (("t", t), ("sample_size", sample_size), ("max_gadgets", max_gadgets)):
        if value is not None and value < 1:
            raise ValueError(f"{name} >= 1 required, got {value}")


def build_absorbing_family(
    host: Graph | Digraph,
    pattern: PatternGraph,
    t: int = 1,
    sample_size: int = 200,
    rng_seed: int = 0,
    max_gadgets: int | None = None,
) -> AbsorbingFamily:
    """Randomized greedy absorbing family, reproducible under the seed.

    One generator, seeded from ``split_seed(rng_seed)``, draws the sampled
    pairs and then each candidate (t*h-1)-set in turn, only as the loop
    reaches it; overlapping candidates are discarded and a survivor becomes
    a gadget when it absorbs both endpoints of at least one sampled pair.
    Each candidate is asked once about all the sampled endpoints
    (`_absorbed`): at t = 1 that is one twin-class search over the host,
    at t >= 2 one exact search per endpoint outside the candidate.  Fails
    loudly when too few disjoint gadgets survive or when the union has no
    perfect packing under the verification budget.  A ``t``,
    ``sample_size`` or given ``max_gadgets`` below 1 is a ValueError.
    """
    _check_family_counts(t, sample_size, max_gadgets)
    n = host.n
    h = pattern.order
    gsize = t * h - 1
    if gsize < 1 or gsize > n:
        raise FamilyConstructionError(f"gadget size {gsize} impossible at n={n}")
    if max_gadgets is None:
        max_gadgets = 2 * h
    params = {
        "t": t,
        "sample_size": sample_size,
        "pair_threshold": _PAIR_THRESHOLD,
        "max_gadgets": max_gadgets,
        "pair_sample_size": _PAIR_SAMPLES,
    }
    rng = random.Random(split_seed(rng_seed))
    pairs = list(dict.fromkeys(  # distinct, in the order drawn
        tuple(sorted(rng.sample(range(n), 2))) for _ in range(_PAIR_SAMPLES)
    ))
    endpoints = mask(v for pair in pairs for v in pair)

    gadgets: list[AbsorbingGadget] = []
    used_mask = 0
    examined = 0
    for _ in range(sample_size):
        if len(gadgets) >= max_gadgets:
            break
        cand = tuple(sorted(rng.sample(range(n), gsize)))
        examined += 1
        cmask = mask(cand)
        if cmask & used_mask:
            continue
        fits = _absorbed(host, pattern, cand, endpoints)
        hit = sum(fits >> a & fits >> b & 1 for a, b in pairs)
        if hit >= _PAIR_THRESHOLD:
            gadgets.append(AbsorbingGadget(cand, hit))
            used_mask |= cmask
    keep = (len(gadgets) // h) * h
    gadgets = gadgets[:keep]
    if not gadgets:
        raise FamilyConstructionError(
            f"too few gadgets survive: examined {examined} candidates, "
            f"needed {h} disjoint gadgets with pair coverage >= {_PAIR_THRESHOLD}"
        )
    m_mask = mask(v for g in gadgets for v in g.verts)
    try:
        idle = perfect_parts_within(host, pattern, m_mask, SearchBudget(_IDLE_BUDGET))
    except BudgetExhausted as exc:
        raise FamilyConstructionError(
            f"idle packing of |M|={m_mask.bit_count()} not verified: {exc}"
        ) from exc
    if idle is None:
        raise FamilyConstructionError(
            f"union of {len(gadgets)} gadgets (|M|={m_mask.bit_count()}) admits no "
            "perfect packing"
        )
    return AbsorbingFamily(tuple(gadgets), params, rng_seed)


def absorb(
    host: Graph | Digraph,
    pattern: PatternGraph,
    fam: AbsorbingFamily,
    W: Sequence[int],
    diagnostics: dict | None = None,
) -> Packing | None:
    """Perfect packing of host[M ∪ W], for M the vertex mask ``fam.M``, or
    None with a diagnostic.

    Every vertex of W is assigned to its own unused gadget after an exact
    solver check; the idle gadgets are then packed jointly.  Capacity is
    one vertex per gadget.  A vertex of W or of a gadget that is not a
    host vertex, gadgets that share a vertex, and a gadget whose size plus
    one is not a multiple of the pattern order (no vertex could make it
    pack) are a ValueError.
    """
    gadget_verts = [u for gadget in fam.gadgets for u in gadget.verts]
    for v in [*W, *gadget_verts]:
        check_vertex(v, host.n)
    notes = diagnostics if diagnostics is not None else {}
    w = sorted(set(W))
    if len(w) != len(list(W)):
        raise ValueError("W has repeated vertices")
    m = fam.M
    if m.bit_count() != len(gadget_verts):
        shared = [v for v in bits(m) if gadget_verts.count(v) > 1]
        raise ValueError(f"gadgets share vertices {shared}")
    wmask = mask(w)
    if m & wmask:
        raise ValueError(f"W intersects M: {list(bits(m & wmask))}")
    h = pattern.order
    for gi, gadget in enumerate(fam.gadgets):
        if (len(gadget.verts) + 1) % h:
            raise ValueError(
                f"gadget {gi} {list(gadget.verts)} has {len(gadget.verts)} vertices; "
                f"a {pattern.name} gadget has t*{h}-1"
            )
    if len(w) % h != 0:
        raise ValueError(f"|W|={len(w)} not divisible by pattern order {h}")
    if len(w) > fam.capacity():
        notes["reason"] = (
            f"capacity exceeded: |W|={len(w)} > {fam.capacity()} gadgets"
        )
        return None

    # which gadgets can take each vertex, verified exactly by the solver
    fits = [_absorbed(host, pattern, g.verts, wmask) for g in fam.gadgets]
    options = [[gi for gi, f in enumerate(fits) if f >> v & 1] for v in w]
    for v, gis in zip(w, options):
        if not gis:
            notes["reason"] = f"no gadget absorbs vertex {v}"
            return None

    # depth-first over injective assignments, w[i] to gadget chosen[i] with
    # ``levels[i]`` iterating the gadgets left for w[i]; a leaf packs the
    # idle gadgets jointly.  Leaves are capped so a refusal at the cap is a
    # diagnostic, not a nonexistence proof
    max_attempts = 500
    attempts = 0
    gmasks = [mask(g.verts) for g in fam.gadgets]
    chosen: list[int] = []
    levels = [iter(options[0])] if w else []
    idle = None
    while True:
        if len(chosen) == len(w):
            attempts += 1
            if attempts > max_attempts:
                break
            idle_mask = sum(gm for gi, gm in enumerate(gmasks) if gi not in chosen)
            idle = perfect_parts_within(host, pattern, idle_mask, None)
            if idle is not None or not w:
                break
            chosen.pop()
        gi = next((gi for gi in levels[-1] if gi not in chosen), None)
        if gi is not None:
            chosen.append(gi)
            if len(chosen) < len(w):
                levels.append(iter(options[len(chosen)]))
            continue
        levels.pop()
        if not levels:
            break
        chosen.pop()
    if idle is None:
        notes["reason"] = "no gadget assignment with a packable idle remainder " + (
            f"found within {max_attempts} configurations"
            if attempts > max_attempts
            else f"exists: the search tried all {attempts} configurations"
        )
        return None
    parts = [
        part
        for v, gi in zip(w, chosen)
        for part in perfect_parts_within(host, pattern, gmasks[gi] | 1 << v, None)
    ]
    packing = Packing.uniform(host.n, parts + idle, pattern)
    check = is_perfect_packing(host, packing, universe=m | wmask)
    assert check.ok, check.reason
    notes["used_gadgets"] = len(w)
    return packing


# -- the absorb-then-pack pipeline ---------------------------------------------


class PipelineResult(NamedTuple):
    success: bool
    packing: Packing | None
    stage: str | None
    diagnostics: dict


def _almost_pack(host: Graph | Digraph, pattern: PatternGraph, within: int) -> Packing:
    """Greedy packing of host[within] improved by the exchange engine where
    it applies, for a mask ``within`` of host vertices.

    Clique patterns run the exchange on the symmetrized host (a clique is
    exactly a transitive copy there); transitive tournament patterns run
    it directly.  Either way the exchange sees the host's rows cut down to
    ``within``, and empty rows outside it, so it ranks the vertices of
    ``within`` by their degrees inside it.  While vertices of ``within``
    stay uncovered, an exchange run is followed by a greedy pass over them,
    until a pass adds no part.  With none uncovered no exchange runs: it
    could only swap in a vertex outside ``within``, which an empty row
    keeps out of every copy but the one vertex of a pattern of order 1.
    Other patterns keep the greedy result, which one pass leaves
    inextensible.
    """
    parts = greedy_parts(host, pattern, within)
    if pattern.transitive_order:
        out, inn = host.out, host.inn
    elif pattern.clique_order and isinstance(host, Graph):
        out = inn = host.adj
    else:
        return Packing.uniform(host.n, parts, pattern)

    def cut(rows: tuple[int, ...]) -> list[int]:
        return [row & within if within >> v & 1 else 0 for v, row in enumerate(rows)]

    dhost = Digraph._from_rows(host.n, cut(out), cut(inn))
    r = pattern.order
    tr = transitive_pattern(r)
    work = Packing.uniform(host.n, parts, tr)
    while parts and within & ~work.covered_mask():
        work, _ = swap_to_fixpoint(dhost, r, work)
        parts = greedy_parts(dhost, tr, within & ~work.covered_mask())
        work = Packing.uniform(host.n, list(work.parts) + parts, tr)
    return Packing.uniform(host.n, work.parts, pattern)


def pipeline(
    host: Graph | Digraph,
    pattern: PatternGraph,
    t: int = 1,
    sample_size: int = 200,
    rng_seed: int = 0,
    max_gadgets: int | None = None,
) -> PipelineResult:
    """Absorbing family -> almost-perfect packing of the rest -> absorb.

    Success returns a solver-verified perfect packing of the whole host;
    failure reports the stage and diagnostics instead of weakening any
    check.  Parameters the family builder refuses raise its ValueError,
    before any stage runs.
    """
    _check_family_counts(t, sample_size, max_gadgets)
    diag: dict = {"n": host.n, "pattern": pattern.name}
    h = pattern.order
    if host.n % h != 0:
        diag["reason"] = f"pattern order {h} does not divide n={host.n}"
        return PipelineResult(False, None, "divisibility", diag)
    try:
        fam = build_absorbing_family(
            host,
            pattern,
            t=t,
            sample_size=sample_size,
            rng_seed=rng_seed,
            max_gadgets=max_gadgets,
        )
    except FamilyConstructionError as exc:
        diag["reason"] = str(exc)
        return PipelineResult(False, None, "absorbing-family", diag)
    m = fam.M
    diag["family_size"] = m.bit_count()
    diag["gadgets"] = fam.capacity()
    rest = host.full_mask() & ~m
    almost = _almost_pack(host, pattern, rest)
    covered = almost.covered_mask()
    leftover = list(bits(rest & ~covered))
    diag["almost_covered"] = covered.bit_count()
    diag["leftover"] = len(leftover)
    absorbed = absorb(host, pattern, fam, leftover, diagnostics=diag)
    if absorbed is None:
        return PipelineResult(False, None, "absorb", diag)
    full = Packing.uniform(host.n, almost.parts + absorbed.parts, pattern)
    check = is_perfect_packing(host, full)
    assert check.ok, check.reason
    return PipelineResult(True, full, None, diag)
