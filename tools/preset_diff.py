"""Compare every bundled preset's outputs between this tree and another.

    python3 tools/preset_diff.py OTHER_ROOT

Runs each preset of ``covered_runs`` in ``tools/preset_digests.py`` (every
bundled preset but ``logistic-covtype``) twice, once with the ``rgess``
under ``src/`` next to this script and once with the one under
``OTHER_ROOT/src``, in the same environment (BLAS on one thread), through
that script's run helper. Outputs go to a temporary directory that is
removed afterwards. For each preset it prints one line, under its name:

- ``identical``: whether ``trace.csv``, ``mixtures.csv``, ``summary.csv``
  and ``report.csv`` are byte-identical;
- ``rejections``: whether the rejection column of ``trace.csv`` is;
- ``regions``: how many ``trace.csv`` rows differ in the region column;
- ``max|dx|``: the largest absolute difference of a coordinate in
  ``trace.csv``;
- ``max|dmix|``: the largest absolute difference over the numeric fields
  of ``mixtures.csv`` (weights, means, scales and dofs).

A file whose rows or columns do not line up between the two trees is
reported as ``layout differs``. This is the evidence for a stated trace
tolerance, where a change cannot keep traces byte-identical.
"""

from __future__ import annotations

import csv
import math
import os
import sys
import tempfile

from preset_digests import FILES, ROOT, covered_runs, preset_env, run_preset

TRACE_KEYS = 2  # chain, iteration
MIXTURE_KEYS = 2  # iteration, component


class LayoutError(ValueError):
    """Two output files whose rows or columns do not line up."""


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _read_rows(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _aligned(path_a, path_b, keys: int):
    """The data rows of two CSV files, checked to have the same header, the
    same number of rows and the same first ``keys`` fields in each row."""
    a, b = _read_rows(path_a), _read_rows(path_b)
    if not a or not b or a[0] != b[0] or len(a) != len(b):
        raise LayoutError(os.path.basename(path_a))
    for row_a, row_b in zip(a[1:], b[1:]):
        if row_a[:keys] != row_b[:keys]:
            raise LayoutError(os.path.basename(path_a))
    return a[1:], b[1:]


def _max_abs_diff(pairs) -> float:
    """Largest |a - b| over pairs of numeric CSV fields; two empty fields
    (a Gaussian component's dof) count as equal."""
    worst = 0.0
    for a, b in pairs:
        if a == b:
            continue
        if not a or not b:
            return math.inf
        worst = max(worst, abs(float(a) - float(b)))
    return worst


def compare_outputs(out_a: str, out_b: str) -> dict:
    """The comparison of two output directories of one preset."""
    same_bytes = all(
        _read_bytes(os.path.join(out_a, name)) == _read_bytes(os.path.join(out_b, name))
        for name in FILES
    )
    result = {"identical": same_bytes}
    try:
        trace_a, trace_b = _aligned(os.path.join(out_a, "trace.csv"),
                                    os.path.join(out_b, "trace.csv"), TRACE_KEYS)
        result["rejections"] = all(a[3] == b[3] for a, b in zip(trace_a, trace_b))
        result["regions"] = (sum(a[2] != b[2] for a, b in zip(trace_a, trace_b)),
                             len(trace_a))
        result["max_dx"] = _max_abs_diff(
            (x, y) for a, b in zip(trace_a, trace_b) for x, y in zip(a[4:], b[4:]))
    except LayoutError as exc:
        result["trace_layout"] = str(exc)
    try:
        mix_a, mix_b = _aligned(os.path.join(out_a, "mixtures.csv"),
                                os.path.join(out_b, "mixtures.csv"), MIXTURE_KEYS)
        result["max_dmix"] = _max_abs_diff(
            (x, y) for a, b in zip(mix_a, mix_b)
            for x, y in zip(a[MIXTURE_KEYS:], b[MIXTURE_KEYS:]))
    except LayoutError as exc:
        result["mixtures_layout"] = str(exc)
    return result


def _format(key: str, result: dict) -> str:
    if "trace_layout" in result:
        trace = "trace.csv layout differs"
    else:
        changed, rows = result["regions"]
        trace = (f"rejections {'same' if result['rejections'] else 'DIFFER'}  "
                 f"regions {changed}/{rows}  max|dx| {result['max_dx']:.3g}")
    if "mixtures_layout" in result:
        mixtures = "mixtures.csv layout differs"
    else:
        mixtures = f"max|dmix| {result['max_dmix']:.3g}"
    identical = "identical" if result["identical"] else "changed"
    return f"{key:24s} {identical:9s}  {trace}  {mixtures}"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/preset_diff.py OTHER_ROOT", file=sys.stderr)
        return 2
    other = os.path.abspath(argv[0])
    if not os.path.isdir(os.path.join(other, "src", "rgess")):
        print(f"error: {other} has no src/rgess", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        for preset in covered_runs():
            outs = []
            for side, root in (("this", ROOT), ("other", other)):
                out = os.path.join(tmp, side, preset)
                try:
                    run_preset(preset, out, preset_env(root))
                except RuntimeError as exc:
                    print(f"error ({side} tree): {exc}", file=sys.stderr)
                    return 1
                outs.append(out)
            print(_format(preset, compare_outputs(*outs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
