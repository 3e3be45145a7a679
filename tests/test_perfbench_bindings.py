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
    "spans.install(spans.Tracer(), workloads.load({root!r}))"
).format(bench=os.path.join(ROOT, "perfbench"), root=ROOT)


def test_benchmark_bindings_resolve():
    # -B: write no bytecode into perfbench/
    proc = subprocess.run(
        [sys.executable, "-B", "-c", BIND],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
