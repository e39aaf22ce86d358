"""The benchmark tracer (bench/tracer.py) still fits the package.

The tracer reads fixed public names of every layer and swaps wrapped
functions in at every lookup site; a renamed or removed name fails
``metrics()`` with a KeyError, and a function parked where the tracer does
not reach shows up in ``leftovers()``.  Runs in a fresh interpreter because
the tracer patches modules in place.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import seqop.acceptance
import seqop.cli
from tracer import Tracer

tracer = Tracer().install()
results = tracer.run(lambda: seqop.acceptance.run_all(["A5", "A7"]))
assert all(r.passed for r in results), results
tracer.metrics()
assert tracer.leftovers() == [], tracer.leftovers()
"""


def test_tracer_metrics_and_coverage():
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "bench"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
