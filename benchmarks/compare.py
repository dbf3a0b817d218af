"""Compare per-call timings of two trees on named cases of ``benchmarks/test_layers.py``.

Run from anywhere with

    python benchmarks/compare.py --parent HEAD~1 --case 'test_from_json_text[3000-compact]'

``--parent`` is a git revision of this repository, whose tracked files are
extracted by ``git archive`` into a temporary directory, or the path of a
directory that holds another tree (its ``src/`` is imported).  The other
side is the tree this file sits in.  Both sides run this tree's
``benchmarks/test_layers.py`` under pytest-benchmark, each in its own
interpreter with only its ``src/`` on ``PYTHONPATH`` and
``PYTHONDONTWRITEBYTECODE=1``, so neither reads the other's bytecode.
Rounds interleave the two sides and alternate which runs first, since
timings of one call in one process move by more than the differences worth
resolving.  Calls are timed in process CPU time (pytest-benchmark's
``--benchmark-timer=time.process_time``), not wall time: the load of other
processes on a shared machine moves it less, though it still slows a
process through shared caches and memory bandwidth.  Each round prints the
minimum of every case on each side and their ratio; the summary gives, per
case, the median over rounds of each side's minimum, the median ratio
(``change / parent``, below 1 is faster), the parent's quartile spread
(the distance between the quartiles of its per-round minima as a percent
of their median, ``n/a`` for one round), which a ratio must clear to
count, and how many rounds the change won.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERS = os.path.join(ROOT, "benchmarks", "test_layers.py")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True, help="git revision or directory of the other tree")
    parser.add_argument("--case", action="append", required=True, help="test_layers.py case id")
    parser.add_argument("--rounds", type=int, default=10, help="interleaved rounds (default 10)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    return args


def extract(ref, into):
    """The tracked files of git revision ``ref`` of this repository, unpacked under ``into``."""
    done = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", ref], capture_output=True)
    if done.returncode != 0:
        sys.exit(f"git archive {ref} failed: {done.stderr.decode(errors='replace').strip()}")
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as archive:
        archive.extractall(into, filter="data")
    return into


def run_side(tree, cases, tmp):
    """``{case: minimum seconds}`` of one pytest-benchmark run of ``cases`` against ``tree/src``."""
    out = os.path.join(tmp, "result.json")
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        f"--rootdir={ROOT}", f"--benchmark-json={out}", "--benchmark-timer=time.process_time",
        *(f"{LAYERS}::{case}" for case in cases),
    ]
    done = subprocess.run(command, cwd=tmp, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"pytest failed on {tree}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    with open(out) as handle:
        stats = {b["name"]: b["stats"]["min"] for b in json.load(handle)["benchmarks"]}
    missing = [case for case in cases if case not in stats]
    if missing:
        sys.exit(f"no timing for {missing} on {tree}")
    return stats


def main(argv=None):
    args = parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="waylab-compare-") as tmp:
        if os.path.isdir(args.parent):
            parent = os.path.abspath(args.parent)
        else:
            parent = extract(args.parent, os.path.join(tmp, "parent"))
        sides = {"parent": parent, "change": ROOT}
        runs = {case: {"parent": [], "change": []} for case in args.case}
        for r in range(args.rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for side in order:
                for case, best in run_side(sides[side], args.case, tmp).items():
                    runs[case][side].append(best)
            for case in args.case:
                p, c = runs[case]["parent"][-1], runs[case]["change"][-1]
                print(f"round {r + 1} ({order[0]} first) {case}: parent {p * 1e3:.3f} ms, "
                      f"change {c * 1e3:.3f} ms, ratio {c / p:.3f}", flush=True)
    print("summary (median over rounds of each round's minimum, process CPU time):")
    for case, times in runs.items():
        ratios = [c / p for p, c in zip(times["parent"], times["change"])]
        won = sum(c < p for p, c in zip(times["parent"], times["change"]))
        print(f"  {case}: parent {statistics.median(times['parent']) * 1e3:.3f} ms, "
              f"change {statistics.median(times['change']) * 1e3:.3f} ms, "
              f"median ratio {statistics.median(ratios):.3f}, "
              f"parent spread {spread(times['parent'])}, change won {won}/{args.rounds}")


def spread(values):
    """Distance between the quartiles of ``values`` as a percent of their median."""
    if len(values) < 2:
        return "n/a"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{(q3 - q1) / median * 100:.1f} %"


if __name__ == "__main__":
    main()
