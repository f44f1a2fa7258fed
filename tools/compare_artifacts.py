"""Run the CLI on two source trees and compare every output they write.

    python tools/compare_artifacts.py --parent-src DIR [--src DIR] [--seed N] [--tiny]

Generates the ``small-verified`` and ``truncation-sweep`` scenarios of
``seed`` with ``perfbench/generate.py``.  Then, for the ``graphon_lqr``
package under ``--parent-src`` and the one under ``--src`` (default: this
checkout's ``src``), each in its own interpreter with one BLAS thread, it
runs ``example-vii --compare-oracle``, ``run --compare-oracle`` and
``oracle-check`` on every small-verified scenario, and ``truncation-study``
and ``oracle-check`` on every sweep scenario.  Each command writes its
artifacts, its stdout, its stderr and its exit code into a directory of its
own, and the two trees are compared file by file (`compare_trees`).  Every
difference is printed; a differing CSV is summarized by the relative gap
``max|a - b| / max|a|`` of each column group (``t``, ``x``, ``u``, ``L``,
``M``, ...).  Exits 1 when anything differs, 0 when nothing does.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STREAMS = ("stdout.txt", "stderr.txt", "exit_code.txt")


def commands(scenarios: str, tiny: bool, seed: int) -> list[tuple[str, list[str]]]:
    """Generate both workloads under ``scenarios``; the (name, argv) of each run."""
    runs = [("example-vii", ["example-vii", "--compare-oracle"])]
    for workload, subcommands in (("small-verified", ("run", "oracle-check")),
                                  ("truncation-sweep", ("truncation-study",
                                                        "oracle-check"))):
        out = os.path.join(scenarios, workload)
        subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "generate.py"),
                        "--workload", workload, "--seed", str(seed), "--out", out]
                       + (["--tiny"] if tiny else []), check=True)
        with open(os.path.join(out, "manifest.json")) as fh:
            items = json.load(fh)
        for item in items:
            for sub in subcommands:
                extra = ["--compare-oracle"] if sub == "run" else []
                runs.append((f"{item['id']}-{sub}", [sub, item["file"], *extra]))
    return runs


def run_side(src: str, out: str, runs) -> None:
    """Run every command on the package under ``src``, one directory each."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for name, argv in runs:
        target = os.path.join(out, name)
        os.makedirs(target)
        proc = subprocess.run([sys.executable, "-m", "graphon_lqr.cli", *argv,
                               "--out", target], env=env, capture_output=True, text=True)
        for stream, text in zip(STREAMS, (proc.stdout, proc.stderr,
                                          f"{proc.returncode}\n")):
            with open(os.path.join(target, stream), "w") as fh:
                fh.write(text)


def _files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def _csv_gaps(a_path: str, b_path: str) -> str:
    """The relative gap of each differing column group of two CSV files."""
    with open(a_path) as fa, open(b_path) as fb:
        header_a, header_b = fa.readline().strip(), fb.readline().strip()
    if header_a != header_b:
        return "headers differ"
    a, b = (np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2) for p in (a_path, b_path))
    if a.shape != b.shape:
        return f"shapes differ: {a.shape} and {b.shape}"
    groups: dict[str, list[int]] = {}
    for col, name in enumerate(header_a.split(",")):
        groups.setdefault(re.sub(r"_\d+$", "", name), []).append(col)
    gaps = []
    for name, cols in groups.items():
        ga, gb = a[:, cols], b[:, cols]
        same = (ga == gb) | (np.isnan(ga) & np.isnan(gb))
        if same.all():
            continue
        with np.errstate(invalid="ignore"):
            diff = np.where(same, 0.0, np.abs(ga - gb))
            scale = np.abs(ga[np.isfinite(ga)]).max(initial=0.0)
            gaps.append(f"{name} {diff.max() / (scale or 1.0):.2e}")
    return "values differ: " + ", ".join(gaps) + " (max|a - b|/max|a|)"


def compare_trees(a: str, b: str) -> list[str]:
    """One line per difference between two output trees; empty when they agree.

    A file present on one side only, a CSV whose bytes differ (with
    `_csv_gaps`) and any other differing file (with its first differing
    line on each side) each give a line.
    """
    files_a, files_b = _files(a), _files(b)
    lines = [f"only in {side}: {rel}" for side, rel in
             [("parent", r) for r in sorted(files_a - files_b)]
             + [("change", r) for r in sorted(files_b - files_a)]]
    for rel in sorted(files_a & files_b):
        pa, pb = os.path.join(a, rel), os.path.join(b, rel)
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            raw_a, raw_b = fa.read(), fb.read()
        if raw_a == raw_b:
            continue
        if rel.endswith(".csv"):
            lines.append(f"{rel}: {_csv_gaps(pa, pb)}")
            continue
        text_a, text_b = raw_a.decode().splitlines(), raw_b.decode().splitlines()
        k = next((i for i, (x, y) in enumerate(zip(text_a, text_b)) if x != y),
                 min(len(text_a), len(text_b)))
        first = [t[k] if k < len(t) else "<end of file>" for t in (text_a, text_b)]
        lines.append(f"{rel}: line {k + 1} differs: {first[0]!r} vs {first[1]!r}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent-src", required=True,
                        help="the src directory of the parent checkout")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        runs = commands(os.path.join(work, "scenarios"), args.tiny, args.seed)
        for side, src in (("parent", args.parent_src), ("change", args.src)):
            run_side(src, os.path.join(work, side), runs)
        lines = compare_trees(os.path.join(work, "parent"), os.path.join(work, "change"))
        checked = len(_files(os.path.join(work, "parent")))
    for line in lines:
        print(line)
    print(f"{len(runs)} commands, {checked} files each side, differences: {len(lines)}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
