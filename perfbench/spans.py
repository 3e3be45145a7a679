"""In-memory span recorder and the wrappers that trace tilinglab's layers.

A span is (name, parent, start, end, busy).  For a plain call, busy is
end - start.  A generator is traced as one span whose busy time counts only
the intervals spent inside it (each resumption up to the next yield), so a
consumer's work between items is not charged to the generator.  A span's
self time is its busy time minus the busy time of its direct children; the
program is single-threaded, so sibling children never overlap.

A call that re-enters a layer already open on the stack (for example
``hs_tight_instance`` calling ``complete_multipartite``, both counted as
``constructions.build``) is passed through unrecorded, so a layer's time is
never counted twice.

Functions are wrapped under every name a module binds them to, so that the
call ``absorbing._perfect_on_subset`` makes to ``find_perfect_packing`` and
the one ``_copies_through`` makes to ``enumerate_copies`` are both seen.
Nothing inside tilinglab is edited.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.child_busy = array("d")
        self.stack: list[int] = []
        self.open: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    # -- recording ----------------------------------------------------------

    def begin(self, name: str) -> int:
        """Open a span; -1 when the layer is already open (re-entry)."""
        if self.open[name]:
            return -1
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        now = perf_counter()
        self.start.append(now)
        self.end.append(now)
        self.busy.append(0.0)
        self.child_busy.append(0.0)
        self.stack.append(idx)
        self.open[name] += 1
        self.counts[name + ".calls"] += 1
        return idx

    def end_span(self, idx: int, busy: float | None = None) -> None:
        if idx < 0:
            return
        now = perf_counter()
        self.end[idx] = now
        self.busy[idx] = now - self.start[idx] if busy is None else busy
        parent = self.parent[idx]
        if parent >= 0:
            self.child_busy[parent] += self.busy[idx]
        self._pop(idx, self.names[self.name[idx]])

    def _pop(self, idx: int, name: str) -> None:
        self.open[name] -= 1
        if self.stack and self.stack[-1] == idx:
            self.stack.pop()

    def reset_stack(self, depth: int) -> None:
        """Close every span left open above ``depth`` (after an exception
        escaped an operation mid-way)."""
        while len(self.stack) > depth:
            idx = self.stack.pop()
            self.open[self.names[self.name[idx]]] = 0
            self.end[idx] = perf_counter()
            self.busy[idx] = self.end[idx] - self.start[idx]

    # -- wrappers -------------------------------------------------------------

    def call(self, name: str, fn, after=None):
        """Wrap a plain function; ``after(result)`` adds counts."""

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end_span(idx)
            if after is not None and idx >= 0:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def generator(self, name: str, fn, item_count: str):
        """Wrap a generator function; busy time counts only its resumptions."""

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if self.open[name]:
                return gen
            return self._drive(name, gen, item_count)

        traced.__wrapped__ = fn
        return traced

    def _drive(self, name: str, gen, item_count: str):
        idx = self.begin(name)
        if idx < 0:
            yield from gen
            return
        busy = 0.0
        items = 0
        try:
            while True:
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    busy += perf_counter() - t0
                # suspended: the span leaves the stack until the next resumption
                self._pop(idx, name)
                items += 1
                try:
                    yield item
                finally:
                    self.stack.append(idx)
                    self.open[name] += 1
        finally:
            gen.close()
            self.counts[item_count] += items
            self.end_span(idx, busy)

    # -- results --------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: summed busy time and self time."""
        out: dict[str, dict[str, float]] = {}
        for i in range(len(self.name)):
            entry = out.setdefault(self.names[self.name[i]], {"time_s": 0.0, "self_s": 0.0})
            entry["time_s"] += self.busy[i]
            entry["self_s"] += self.busy[i] - self.child_busy[i]
        return out

    def write(self, path: str) -> None:
        """Span table as tab-separated text, one span per line."""
        with open(path, "w") as fh:
            fh.write("span\tname\tparent\tstart\tend\tbusy\tself\n")
            names = self.names
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{names[self.name[i]]}\t{self.parent[i]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.busy[i]:.9f}\t"
                    f"{self.busy[i] - self.child_busy[i]:.9f}\n"
                )


def _rebind(original, replacement) -> None:
    """Point every tilinglab module-level name bound to ``original`` at
    ``replacement``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "tilinglab" or modname.startswith("tilinglab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer, tl) -> None:
    """Wrap every layer boundary the benchmark reports on.

    ``tl`` is the namespace returned by ``workloads.load``.
    """
    packing = tl.packing
    counts = tracer.counts

    def with_budget(name, fn):
        # count search nodes even when the caller passes no budget
        def traced(host, pattern, budget=None):
            if budget is None:
                budget = packing.SearchBudget(None)
            before = budget.nodes
            try:
                return fn(host, pattern, budget)
            finally:
                counts[name + ".nodes"] += budget.nodes - before

        return tracer.call(name, traced)

    def count_steps(result):
        counts["exchange.swap_to_fixpoint.steps"] += result[1]

    def count_attempts(csv_text):
        summary = csv_text.strip().rsplit("\n", 1)[-1]
        fields = dict(f.split("=", 1) for f in summary.split(",") if "=" in f)
        counts["cli.experiment.attempts"] += int(fields["attempts"])

    wrapped = [
        (packing.find_perfect_packing,
         with_budget("packing.find_perfect_packing", packing.find_perfect_packing)),
        (packing.max_packing,
         with_budget("packing.max_packing", packing.max_packing)),
        (packing.spans_pattern, tracer.call("packing.spans_pattern", packing.spans_pattern)),
        (packing.greedy_packing, tracer.call("packing.greedy_packing", packing.greedy_packing)),
        (packing.is_perfect_packing, tracer.call("packing.verify", packing.is_perfect_packing)),
        (packing.verify_parts, tracer.call("packing.verify", packing.verify_parts)),
        (packing.enumerate_copies,
         tracer.generator("packing.enumerate_copies", packing.enumerate_copies,
                          "packing.enumerate_copies.copies")),
        (tl.constructions.certify_uncoverable,
         tracer.call("constructions.certify_uncoverable", tl.constructions.certify_uncoverable)),
        (tl.exchange.swap_to_fixpoint,
         tracer.call("exchange.swap_to_fixpoint", tl.exchange.swap_to_fixpoint,
                     after=count_steps)),
        (tl.cli.experiment_csv,
         tracer.call("cli.experiment", tl.cli.experiment_csv, after=count_attempts)),
    ]
    for fname in ("build_absorbing_family", "absorb", "pipeline"):
        fn = getattr(tl.absorbing, fname)
        wrapped.append((fn, tracer.call(f"absorbing.{fname}", fn)))
    for fname in ("hs_tight_instance", "extremal_instance", "complete_multipartite",
                  "complete_graph", "transitive_tournament", "clique_pattern",
                  "transitive_pattern", "multipartite_pattern", "pattern_from_name",
                  "pattern_power"):
        fn = getattr(tl.constructions, fname)
        wrapped.append((fn, tracer.call("constructions.build", fn)))
    for fname in ("check_exact_sequence", "check_margin_sequence",
                  "check_dominant_margin", "check_baselines", "evaluate"):
        fn = getattr(tl.degseq, fname)
        wrapped.append((fn, tracer.call("degseq.check", fn)))
    for original, replacement in wrapped:
        _rebind(original, replacement)
    for cls in (tl.graphs.Graph, tl.graphs.Digraph):
        cls.induced = tracer.call("graphs.induced", cls.induced)

