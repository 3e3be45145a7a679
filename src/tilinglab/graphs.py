"""Core graph and digraph types with bitset adjacency.

Vertices are dense integers 0..n-1.  Adjacency is stored as one Python int
bitmask per vertex, so neighbourhood intersections (the inner loop of every
copy-enumeration routine in this package) are single big-int ANDs.  The rows
are the only stored adjacency; edge and arc sets are read off them.

The constructors ``Graph(n, edges)`` and ``Digraph(n, arcs)`` validate every
pair, since their pairs come from outside the package.  Each pair gets one
inline test: both ends plain ints in 0..n-1, and distinct.  Only a pair
that fails it goes through the full checks (``check_vertex`` on either end,
then the loop test), which raise the error naming what is wrong, or let
the pair through when its ends are int subclasses.  Graphs the package
derives from another graph's rows (``symmetrize``, ``blow_up``, the
experiment sampler, rows cut down to a vertex mask) are built from rows
directly and check no pair.  No library path builds an induced copy:
``induced`` serves the tests' oracles and direct callers.

All types are immutable after construction and safe to share between
threads.  "X spans a copy of H" means subgraph containment throughout the
package, never induced containment.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator


class GraphFormatError(ValueError):
    """Raised for malformed graph input (loops, bad endpoints, bad JSON)."""


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions of ``mask`` in increasing order; a negative
    mask, which has infinitely many set bits, is a ValueError."""
    if mask < 0:
        raise ValueError(f"negative vertex mask {mask}")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask(verts: Iterable[int]) -> int:
    """The bitmask of the vertices ``verts``, the inverse of `bits`; the one
    place the package turns a vertex set into a mask."""
    m = 0
    for v in verts:
        m |= 1 << v
    return m


def check_vertex(v: int, n: int) -> None:
    """Raise GraphFormatError unless v is an int in 0..n-1."""
    if not isinstance(v, int) or isinstance(v, bool):
        raise GraphFormatError(f"vertex {v!r} is not an integer")
    if not 0 <= v < n:
        raise GraphFormatError(f"vertex {v} out of range 0..{n - 1}")


def _check_pair(u, v, n: int) -> None:
    """The full checks for a pair that failed the constructors' inline
    test: raise GraphFormatError unless both ends are vertices and differ.
    Ends of an int subclass other than bool pass."""
    check_vertex(u, n)
    check_vertex(v, n)
    if u == v:
        raise GraphFormatError(f"loop at vertex {u}")


class _GraphBase:
    """What Graph and Digraph share: the checked order, and the pair
    list, counts, equality and induced subgraphs read off the rows.

    The adjacency rows are the graph: ``adj`` for a graph, ``out`` and
    ``inn`` for a digraph.  A subclass stores them in ``_set_rows``, hands
    them back in that order from ``_rows`` (the forward rows, ``adj`` or
    ``out``, first) and names its ``kind``; a graph's rows hold each edge
    twice, once in the row of either end.
    """

    __slots__ = ("n",)
    kind: str  # "graph" or "digraph", as in graph files
    _symmetric = False

    def __init__(self, n: int):
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise GraphFormatError(f"vertex count {n!r} is not a nonnegative integer")
        if n > sys.maxsize:  # no list of rows is that long
            raise GraphFormatError(f"vertex count {n} is too large")
        self.n = n

    @classmethod
    def _from_rows(cls, n: int, *rows: Iterable[int]):
        """A graph on rows derived from another graph's: nothing is checked."""
        g = cls.__new__(cls)
        g.n = n
        g._set_rows(*rows)
        return g

    def pairs(self) -> list[tuple[int, int]]:
        """The edges (u < v) or arcs (u, v), sorted: row by row, each row
        ascending."""
        rows = self._rows()[0]
        if self._symmetric:
            rows = [row >> u + 1 << u + 1 for u, row in enumerate(rows)]
        return [(u, v) for u, row in enumerate(rows) for v in bits(row)]

    def edge_count(self) -> int:
        count = sum(row.bit_count() for row in self._rows()[0])
        return count // 2 if self._symmetric else count

    def vertices(self) -> range:
        return range(self.n)

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def induced(self, vertices: Iterable[int]) -> tuple["_GraphBase", list[int]]:
        """Induced subgraph plus the list mapping new ids to original ids.

        New ids follow the original id order.
        """
        vs = sorted(set(vertices))
        # maximal runs of consecutive kept ids: (first old id, mask, first new id)
        runs = []
        for i, v in enumerate(vs):
            if runs and v == vs[i - 1] + 1:
                first, mask, new = runs[-1]
                runs[-1] = (first, mask << 1 | 1, new)
            else:
                runs.append((v, 1, i))

        def compress(row: int) -> int:
            return sum((row >> first & mask) << new for first, mask, new in runs)

        return self._from_rows(
            len(vs), *([compress(rows[v]) for v in vs] for rows in self._rows())
        ), vs

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, type(self))
            and self.n == other.n
            and self._rows()[0] == other._rows()[0]
        )

    def __hash__(self) -> int:
        return hash((self.n, self._rows()[0]))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, m={self.edge_count()})"


class Graph(_GraphBase):
    """Simple undirected graph: no loops, no parallel edges."""

    __slots__ = ("adj",)
    kind = "graph"
    _symmetric = True

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        super().__init__(n)
        adj = [0] * n
        for u, v in edges:
            if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n and u != v):
                _check_pair(u, v, n)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._set_rows(adj)

    def _set_rows(self, adj: Iterable[int]) -> None:
        self.adj = tuple(adj)

    def _rows(self) -> tuple[tuple[int, ...]]:
        return (self.adj,)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as pairs (u, v) with u < v, read off the rows."""
        return frozenset(self.pairs())

    # -- queries ---------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return list(bits(self.adj[v]))


class Digraph(_GraphBase):
    """Simple directed graph: no loops, at most one arc per ordered pair.

    Antiparallel arc pairs are allowed; an edge both ways is two arcs.
    """

    __slots__ = ("out", "inn")
    kind = "digraph"

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        super().__init__(n)
        out = [0] * n
        inn = [0] * n
        for u, v in arcs:
            if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n and u != v):
                _check_pair(u, v, n)
            out[u] |= 1 << v
            inn[v] |= 1 << u
        self._set_rows(out, inn)

    def _set_rows(self, out: Iterable[int], inn: Iterable[int]) -> None:
        self.out = tuple(out)
        self.inn = tuple(inn)

    def _rows(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return self.out, self.inn

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        """The arcs as pairs (tail, head), read off the rows."""
        return frozenset(self.pairs())

    # -- queries ---------------------------------------------------------

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.out[u] >> v & 1)

    def out_degree(self, v: int) -> int:
        return self.out[v].bit_count()

    def in_degree(self, v: int) -> int:
        return self.inn[v].bit_count()


_KINDS = {cls.kind: cls for cls in (Graph, Digraph)}


def dominant_rows(d: Digraph) -> list[int]:
    """Each vertex's adjacency row in its dominant direction: the out-row
    when d+(x) >= d-(x) (a tie counts as sent-out arcs), else the in-row.

    Its bit count is the dominant degree d*(x) = max(d+(x), d-(x)).  This is
    the one place the tie rule is decided; callers read the direction off
    the row instead of deciding it again.
    """
    return [o if o.bit_count() >= i.bit_count() else i for o, i in zip(d.out, d.inn)]


def degree_sequence(g: Graph | Digraph) -> list[int]:
    """d_1 <= ... <= d_n read off the rows: the degrees of a graph, the
    dominant degrees max(d+, d-) of a digraph."""
    if isinstance(g, Digraph):
        return sorted(map(max, map(int.bit_count, g.out), map(int.bit_count, g.inn)))
    return sorted(map(int.bit_count, g.adj))


def blow_up(g: Graph | Digraph, t: int) -> Graph | Digraph:
    """Replace each vertex by t clones; block of vertex i is i*t..i*t+t-1.

    Clone blocks of adjacent vertices are completely joined (respecting arc
    direction for digraphs); blocks of non-adjacent vertices, and the inside
    of each block, stay empty.
    """
    if t < 1:
        raise ValueError("blow-up factor must be >= 1")
    block = (1 << t) - 1

    def spread(row: int) -> int:
        return sum(block << v * t for v in bits(row))

    return g._from_rows(
        g.n * t, *([spread(row) for row in rows for _ in range(t)] for rows in g._rows())
    )


def symmetrize(g: Graph) -> Digraph:
    """Replace each edge xy by the two arcs xy and yx."""
    return Digraph._from_rows(g.n, g.adj, g.adj)


# -- pattern graphs --------------------------------------------------------


def _clique_order(g: Graph) -> int | None:
    """r if g is K_r, else None."""
    if g.n >= 1 and g.edge_count() == g.n * (g.n - 1) // 2:
        return g.n
    return None


def _is_transitive_tournament(d: Digraph) -> bool:
    degs = sorted((d.out_degree(v) for v in range(d.n)), reverse=True)
    return d.edge_count() == d.n * (d.n - 1) // 2 and degs == list(
        range(d.n - 1, -1, -1)
    )


@dataclass(frozen=True)
class TwinClasses:
    """A pattern's vertices split into twin classes.

    Two vertices are twins when swapping them is an automorphism: the same
    neighbours apart from each other and, in a digraph, arcs between them
    both ways or neither.  Inside a class and between two classes the
    pattern is therefore homogeneous, and a vertex set spans the pattern
    exactly when it splits into groups of the class sizes that meet these
    class-level adjacencies.

    ``need[i][j]`` names the arcs a vertex put in class j needs with one
    put in class i: bit 1 the arc from the class-i vertex, bit 2 the arc
    back to it (a graph edge sets both).  The diagonal entry is 3 for a
    class of mutually joined twins.
    Each ``groups`` entry is a slice ``(a, b)`` of consecutive classes of
    equal size that any permutation among themselves maps onto the pattern.
    """

    classes: tuple[tuple[int, ...], ...]
    need: tuple[tuple[int, ...], ...]
    groups: tuple[tuple[int, int], ...]


def _partition(items: Iterable, same) -> list[list]:
    """Classes of an equivalence relation, in order of first appearance."""
    classes: list[list] = []
    for x in items:
        home = next((c for c in classes if same(c[0], x)), None)
        if home is None:
            classes.append([x])
        else:
            home.append(x)
    return classes


def arc_rows(g: Graph | Digraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Out- and in-neighbourhood rows; a graph's edges go both ways."""
    if isinstance(g, Digraph):
        return g.out, g.inn
    return g.adj, g.adj


def twin_partition(g: Graph | Digraph) -> list[list[int]]:
    """The vertices split into twin classes, in order of first appearance.

    Twins have the same out- and in-neighbours apart from each other and,
    in a digraph, arcs between them both ways or neither.  That is, their
    rows agree as they are (no arcs between them) or with each vertex
    added to its own rows (arcs both ways).  A vertex is never in a
    nontrivial class of both kinds, so grouping the rows by both keys
    finds the classes in time linear in n.
    """
    fwd, back = arc_rows(g)
    apart: dict[tuple[int, int], list[int]] = {}
    joined: dict[tuple[int, int], list[int]] = {}
    for v in range(g.n):
        apart.setdefault((fwd[v], back[v]), []).append(v)
        joined.setdefault((fwd[v] | 1 << v, back[v] | 1 << v), []).append(v)
    classes = []
    for v in range(g.n):
        home = apart[fwd[v], back[v]]
        if len(home) == 1:
            home = joined[fwd[v] | 1 << v, back[v] | 1 << v]
        if home[0] == v:
            classes.append(home)
    return classes


def _twin_classes(base: Graph | Digraph) -> TwinClasses:
    fwd, back = arc_rows(base)

    def code(p: int, q: int) -> int:
        return (fwd[p] >> q & 1) | (back[p] >> q & 1) << 1

    classes = twin_partition(base)

    def need(a: list[int], b: list[int]) -> int:
        return code(a[0], b[-1])  # 0 inside a one-vertex class: no loops

    def swappable(a: list[int], b: list[int]) -> bool:
        return (
            len(a) == len(b)
            and need(a, a) == need(b, b)
            and need(a, b) in (0, 3)
            and all(need(a, c) == need(b, c) for c in classes if c is not a and c is not b)
        )

    # swapping whole classes is again a twin relation, so its groups are
    # the classes of an equivalence and can be listed one after another
    groups = _partition(classes, swappable)
    ordered = [c for g in groups for c in g]
    slices = []
    start = 0
    for g in groups:
        if len(g) > 1:
            slices.append((start, start + len(g)))
        start += len(g)
    return TwinClasses(
        tuple(tuple(c) for c in ordered),
        tuple(tuple(need(a, b) for b in ordered) for a in ordered),
        tuple(slices),
    )


def _multipartite_classes(tw: TwinClasses) -> tuple[int, ...] | None:
    """Class sizes if the pattern is complete multipartite (>= 2 classes).

    Then every twin class is joined to every other.  A twin class without
    inner edges is one part, and each vertex of a joined one is a part.
    """
    k = len(tw.classes)
    if any(tw.need[i][j] != 3 for i in range(k) for j in range(k) if i != j):
        return None
    sizes = []
    for i, c in enumerate(tw.classes):
        sizes.extend([1] * len(c) if tw.need[i][i] else [len(c)])
    return tuple(sorted(sizes, reverse=True)) if len(sizes) >= 2 else None


class PatternGraph:
    """A small pattern to pack, with cached structural classification.

    Wraps either a Graph or a Digraph.  The twin classes are computed on
    demand and cached.  No condition reads the pattern's chromatic number:
    every degree-sequence check takes r from its caller.
    Copy enumeration and spanning tests run their clique and transitive
    loops on ``clique_order`` and ``transitive_order``, and the twin-class
    search on every other pattern; ``multipartite`` names the pattern.
    """

    __slots__ = (
        "base",
        "name",
        "order",
        "is_digraph",
        "clique_order",
        "multipartite",
        "transitive_order",
        "_twins",
    )

    def __init__(self, base: Graph | Digraph, name: str | None = None):
        if base.n < 1:
            raise ValueError("pattern must have at least one vertex")
        self.base = base
        self.order = base.n
        self.is_digraph = isinstance(base, Digraph)
        self._twins: TwinClasses | None = None
        if self.is_digraph:
            self.clique_order = None
            self.multipartite = None
            self.transitive_order = base.n if _is_transitive_tournament(base) else None
        else:
            self.clique_order = _clique_order(base)
            self.multipartite = (
                None if self.clique_order else _multipartite_classes(self.twin_classes())
            )
            self.transitive_order = None
        self.name = name or self._default_name()

    def _default_name(self) -> str:
        if self.transitive_order:
            return f"T{self.transitive_order}"
        if self.clique_order:
            return f"K{self.clique_order}"
        if self.multipartite:
            return "K" + ",".join(str(s) for s in self.multipartite)
        return f"{self.base.kind}({self.order})"

    def twin_classes(self) -> TwinClasses:
        if self._twins is None:
            self._twins = _twin_classes(self.base)
        return self._twins

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PatternGraph) and self.base == other.base

    def __hash__(self) -> int:
        return hash(self.base)

    def __repr__(self) -> str:
        return f"PatternGraph({self.name})"


# -- serialization ---------------------------------------------------------


def graph_to_json(g: Graph | Digraph) -> str:
    return json.dumps(
        {"kind": g.kind, "n": g.n, "edges": [[u, v] for u, v in g.pairs()]}
    )


def graph_from_json(text: str) -> Graph | Digraph:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits, too deep
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise GraphFormatError("graph JSON must be an object")
    kind = data.get("kind")
    if kind not in _KINDS:
        raise GraphFormatError(f"unknown kind {kind!r}")
    edges = data.get("edges")
    if not isinstance(edges, list):
        raise GraphFormatError("field 'edges' must be a list of pairs")
    pairs = []
    for item in edges:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise GraphFormatError(f"bad edge entry {item!r}")
        pairs.append((item[0], item[1]))
    return _KINDS[kind](data.get("n"), pairs)


def format_edge_list(g: Graph | Digraph) -> str:
    pairs = g.pairs()
    lines = [f"{g.n} {len(pairs)} {g.kind}"]
    lines.extend(f"{u} {v}" for u, v in pairs)
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph | Digraph:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise GraphFormatError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 3:
        raise GraphFormatError("header must be 'n m kind'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphFormatError("header counts must be integers") from exc
    kind = head[2]
    if kind not in _KINDS:
        raise GraphFormatError(f"unknown kind {kind!r}")
    if len(lines) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, got {len(lines) - 1}")
    pairs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"bad edge line {ln!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise GraphFormatError(f"bad edge line {ln!r}") from exc
    return _KINDS[kind](n, pairs)


def load_graph(path: str) -> Graph | Digraph:
    """Load a graph from a JSON or edge-list file: JSON when the first
    non-blank character is "{", whatever the extension.

    A UTF-8 byte-order mark at the start is skipped.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"{path} is not UTF-8 text: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return graph_from_json(text)
    return parse_edge_list(text)
