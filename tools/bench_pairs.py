"""Compare the benchmark's end-to-end metrics between this tree and another.

    python3 tools/bench_pairs.py OTHER_ROOT --workload NAME [-n 10]

Runs ``python3 perfbench/run.py --workload NAME`` ``n`` times in each tree,
each from its own root and with the environment of a preset run
(``preset_digests.preset_env``: BLAS on one thread, that tree's ``src``
first on the path). The runs go in pairs, one run of each tree, and the
tree that goes first alternates from pair to pair, starting with
``OTHER_ROOT``. Every run writes only what ``perfbench/run.py`` writes in
its own tree (``.perfbench-out/``).

For each end-to-end metric of ``BENCHMARK.json`` it prints one line:
``OTHER_ROOT``'s median and quartiles, this tree's median, quartiles and
change in percent, the number of pairs this tree won (ties count for
neither side) and whether this tree's median is worse than the other's by
more than the metric's ``bound``, a fraction of the other's median. Last,
it prints each tree's ``correct`` runs and its ``attempted`` and ``failed``
rounds, summed over the runs. It exits 1 when a run does not complete.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from preset_digests import ROOT, preset_env


def run_once(root: str, workload: str) -> dict:
    """The JSON result of one ``perfbench/run.py --workload`` run in
    ``root``; ``RuntimeError`` when it exits non-zero."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload],
                          cwd=root, env=preset_env(root), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: perfbench/run.py exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _num(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 1e4 else f"{value:.4g}"


def _quartiles(values: list) -> tuple:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def summarise(metric: dict, other: list, this: list) -> str:
    """One line comparing a metric's values over paired runs, ``other[i]``
    and ``this[i]`` from pair i."""
    lower = metric["better"] == "lower"
    o_med, o_q1, o_q3 = _quartiles(other)
    t_med, t_q1, t_q3 = _quartiles(this)
    won = sum((t < o) if lower else (t > o) for o, t in zip(other, this))
    worse = (t_med - o_med) if lower else (o_med - t_med)
    past = worse > metric["bound"] * abs(o_med)
    change = 100.0 * (t_med - o_med) / o_med if o_med else float("nan")
    return (f"{metric['name']:20s} other {_num(o_med)} [{_num(o_q1)}–{_num(o_q3)}]  "
            f"this {_num(t_med)} [{_num(t_q1)}–{_num(t_q3)}] ({change:+.1f}%)  "
            f"won {won}/{len(this)}  "
            f"{'PAST' if past else 'within'} bound {metric['bound']:.0%} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_root")
    parser.add_argument("--workload", required=True)
    parser.add_argument("-n", type=int, default=10, help="pairs of runs (at least 2)")
    args = parser.parse_args(argv)
    other = os.path.abspath(args.other_root)
    if args.n < 2:
        parser.error("-n must be at least 2, for quartiles")
    if not os.path.isfile(os.path.join(other, "perfbench", "run.py")):
        parser.error(f"{other} has no perfbench/run.py")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]

    results = {"other": [], "this": []}
    try:
        for pair in range(args.n):
            sides = [("other", other), ("this", ROOT)]
            for side, root in sides if pair % 2 == 0 else sides[::-1]:
                results[side].append(run_once(root, args.workload))
            print(f"pair {pair + 1}/{args.n} done", file=sys.stderr, flush=True)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"{args.workload}: {args.n} pairs, other = {other}")
    for metric in end_to_end:
        other_values, this_values = ([r["metrics"][metric["name"]]["value"] for r in runs]
                                     for runs in (results["other"], results["this"]))
        print(summarise(metric, other_values, this_values))
    for side, runs in results.items():
        print(f"{side}: correct {sum(r['correct'] for r in runs)}/{len(runs)} runs, "
              f"attempted {sum(r['attempted'] for r in runs)}, "
              f"failed {sum(r['failed'] for r in runs)} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
