"""Measure what ``import rgess.cli`` costs a fresh process.

    python3 tools/import_cost.py [-n N] [ROOT]

Starts N (default 20) fresh interpreters, one after another, each with the
``rgess`` under ``ROOT/src`` first on the path (default: the tree next to
this script) and BLAS on one thread. Each one times ``import rgess.cli``
with ``time.perf_counter`` and reports its own ``ru_maxrss``, the number
of modules in ``sys.modules`` and the names of the ``scipy`` modules among
them after the import. The script prints the median and quartiles of the
import time (ms), of the peak RSS (MB) and of the module count over the N
processes, then every scipy module that loaded. Running it on two trees
compares their import cost.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from preset_digests import ROOT, preset_env

PROBE = """
import json, resource, sys, time
t0 = time.perf_counter()
import rgess.cli
t1 = time.perf_counter()
print(json.dumps({
    "import_ms": 1e3 * (t1 - t0),
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "modules": len(sys.modules),
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
}))
"""


def probe(root: str) -> dict:
    """One fresh process's import time, peak RSS, module count and scipy
    modules."""
    proc = subprocess.run([sys.executable, "-c", PROBE], env=preset_env(root),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:8.2f}  quartiles [{q1:.2f}, {q3:.2f}]"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default=ROOT, help="tree whose src/ to import")
    parser.add_argument("-n", type=int, default=20, help="number of processes (at least 2)")
    args = parser.parse_args(argv)
    if args.n < 2:
        parser.error("-n must be at least 2")
    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src", "rgess")):
        parser.error(f"{root} has no src/rgess")
    runs = [probe(root) for _ in range(args.n)]
    print(f"import rgess.cli from {root}/src, {args.n} processes")
    print(f"  import time (ms)   {quartiles([r['import_ms'] for r in runs])}")
    print(f"  peak RSS (MB)      {quartiles([r['maxrss_mb'] for r in runs])}")
    print(f"  sys.modules        {quartiles([r['modules'] for r in runs])}")
    loaded = sorted({name for r in runs for name in r["scipy"]})
    print(f"  scipy modules ({len(loaded)})  {', '.join(loaded) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
