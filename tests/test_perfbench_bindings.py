"""The benchmark in perfbench/ imports tilinglab from src/ and wraps its
layer functions by name.  A renamed or deleted name must fail here rather
than only when a traced benchmark run is made."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BIND = (
    "import sys; sys.path.insert(0, {bench!r}); "
    "import spans, workloads; "
    "tracer = spans.Tracer(); tl = workloads.load({root!r}); "
    "spans.install(tracer, tl)"
).format(bench=os.path.join(ROOT, "perfbench"), root=ROOT)

# The search layers called through the traced bindings.  The budget wrapper
# passes (host, pattern, budget) positionally, and the generator wrapper
# closes whatever enumerate_copies returns, so the empty early return must
# be a generator as well.
DRIVE = """
c, packing = tl.constructions, tl.packing
k3 = c.clique_pattern(3)
k6 = c.complete_graph(6)
assert packing.find_perfect_packing(k6, k3) is not None
assert packing.find_perfect_packing(k6, k3, packing.SearchBudget(100)) is not None
assert packing.max_packing(c.complete_graph(5), k3).packing.coverage() == 3
assert len(list(packing.enumerate_copies(k6, k3))) == 20
assert list(packing.enumerate_copies(k6, k3, through=0, within=0)) == []
assert list(packing.enumerate_copies(c.complete_graph(2), k3)) == []
counts = tracer.counts
assert counts["packing.find_perfect_packing.calls"] == 2, dict(counts)
assert counts["packing.find_perfect_packing.nodes"] == 6, dict(counts)
assert counts["packing.max_packing.calls"] == 1, dict(counts)
assert counts["packing.max_packing.nodes"] > 0, dict(counts)
assert counts["packing.enumerate_copies.calls"] >= 9, dict(counts)
"""


def _run(script):
    # -B: write no bytecode into perfbench/
    return subprocess.run(
        [sys.executable, "-B", "-c", script],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_benchmark_bindings_resolve():
    proc = _run(BIND)
    assert proc.returncode == 0, proc.stderr


def test_traced_search_layers_run():
    proc = _run(BIND + "\n" + DRIVE)
    assert proc.returncode == 0, proc.stderr
