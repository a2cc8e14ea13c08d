"""Self-tests of the benchmark, kept out of the tier-1 suite (pyproject's
testpaths is tests/).  Run with:

    python3 -m pytest -q benchmarks/selftest
"""
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for p in (ROOT / "src", BENCH):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))
