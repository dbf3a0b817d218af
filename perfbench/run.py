"""Run one benchmark workload in this process and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload readout-large --seed 1 --seconds 25 --trace 0

The program under test is the ``waylab`` package in ``src/`` next to this
directory; without it the run stops with exit code 2 and prints no result.

``--trace 0`` reports the end-to-end metrics with tracing off.  Times are
in seconds at reference host speed (see ``reference.py``): each is scaled
by a fixed kernel timed next to it, and the raw figures are printed too.

* ``setup_s``: import of waylab/numpy/scipy, seeded input generation and a
  warm-up pass on small inputs, median over this process and two fresh
  interpreters started one after the other;
* ``wall_s`` and ``cpu_s``: median wall and process CPU time (all threads)
  of one verified pass, over the passes that fit in ``--seconds``;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` alternates untraced and traced passes for ``--seconds`` (at
least one of each), writes the spans as JSON lines to ``.perfbench-out/``
and reports the per-layer metrics in raw seconds; the tracing overhead is
the traced minus the untraced median pass.

Every op is checked; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit
code is 1 when any op failed.
"""

import time

_START = time.perf_counter()

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
WORKLOAD_NAMES = ("readout-large", "small-structures", "nogo-scan", "optimize-sweep")
SETUP_PROBES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def blas_threads():
    """Thread count of every OpenBLAS library loaded in this process."""
    with open("/proc/self/maps") as handle:
        paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    counts = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                counts[os.path.basename(path)] = getter()
                break
    return counts


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("version"),
        "machine": platform.machine(),
    }


def set_up(args, workdir):
    """Import the program, make the seeded inputs and run a warm-up pass."""
    sys.path.insert(0, SRC)
    import reference
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed, workdir)
    warm = workloads.Ops()
    workload.run_pass(warm, spans.layer_api(), workload.make_inputs(args.seed, workdir, small=True))
    for message in warm.messages:
        print(f"warm-up failure: {message}", file=sys.stderr)
    raw_s = time.perf_counter() - _START
    return workload, inputs, (raw_s * reference.speed_factor(), raw_s)


def probe_setup(args):
    """Set-up time of a fresh interpreter running this file with ``--setup-probe``."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["raw_setup_s"]


def measure(workload, inputs, modes, seconds):
    """Run verified passes, one per mode in turn, until the next round would end after ``seconds``.

    ``modes`` holds ``(ops, api, tracer)`` triples; alternating them keeps
    drift in machine speed from biasing one mode against another.  A mode
    whose ``ops`` has a clock gets scaled times, the others raw ones.
    Returns per-mode lists of pass ``(wall, cpu, raw wall, raw cpu)``
    times, and the last pass's notes.
    """
    times, elapsed = [[] for _ in modes], [[] for _ in modes]
    start = time.perf_counter()
    while True:
        for k, (ops, api, tracer) in enumerate(modes):
            gc.collect()
            if tracer is not None:
                tracer.pass_no += 1
            if ops.clock is not None:
                ops.clock.start_pass()
            wall0, cpu0 = time.perf_counter(), time.process_time()
            notes = workload.run_pass(ops, api, inputs)
            if ops.clock is not None:
                times[k].append(ops.clock.end_pass())
            else:
                raw = (time.perf_counter() - wall0, time.process_time() - cpu0)
                times[k].append(raw + raw)
            elapsed[k].append(time.perf_counter() - wall0)
        next_round = sum(statistics.median(e) for e in elapsed)
        if time.perf_counter() - start + next_round > seconds:
            return times, notes


def _column(samples, i):
    return [sample[i] for sample in samples]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(args, workdir):
    workload, inputs, setup = set_up(args, workdir)
    setup_samples = [setup]
    import reference
    import spans
    import workloads

    env = environment()
    print(f"# {args.workload} seed {args.seed}: " + json.dumps(env))
    if args.trace:
        tracer = spans.Tracer()
        plain_ops, traced_ops = workloads.Ops(), workloads.Ops(tracer)
        modes = [(plain_ops, spans.layer_api(), None),
                 (traced_ops, spans.layer_api(tracer), tracer)]
        (plain, traced), notes = measure(workload, inputs, modes, args.seconds)
        plain, traced = _column(plain, 0), _column(traced, 0)
        all_ops = (plain_ops, traced_ops)
        overhead = statistics.median(traced) - statistics.median(plain)
        values = spans.layer_metrics(tracer.spans, len(traced), overhead)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path)
        print(f"# {len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
        print(f"# untraced pass wall times {[round(w, 4) for w in plain]}, "
              f"traced {[round(w, 4) for w in traced]}")
        units = {name: unit for name, unit, _ in spans.per_layer_names()}
        metrics = {name: _metric(values[name], units[name]) for name in sorted(values)}
    else:
        setup_samples += [probe_setup(args) for _ in range(SETUP_PROBES)]
        ops = workloads.Ops(clock=reference.ScaledClock())
        ([passes], notes) = measure(workload, inputs, [(ops, spans.layer_api(), None)],
                                    args.seconds)
        all_ops = (ops,)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls, cpus, raw_walls, raw_cpus = (_column(passes, i) for i in range(4))
        print(f"# {len(passes)} passes; scaled wall times {[round(w, 4) for w in walls]}")
        print(f"# raw wall times {[round(w, 4) for w in raw_walls]}, "
              f"raw median wall {statistics.median(raw_walls):.6g} s, "
              f"cpu {statistics.median(raw_cpus):.6g} s")
        print(f"# set-up samples scaled {[round(s, 4) for s, _ in setup_samples]}, "
              f"raw {[round(r, 4) for _, r in setup_samples]}")
        metrics = {
            "setup_s": _metric(statistics.median(_column(setup_samples, 0)), "s"),
            "wall_s": _metric(statistics.median(walls), "s"),
            "cpu_s": _metric(statistics.median(cpus), "s"),
            "peak_rss_mb": _metric(peak_mb, "MB"),
        }

    attempted = sum(o.attempted for o in all_ops)
    failed = sum(o.failed for o in all_ops)
    kinds = {}
    for o in all_ops:
        for kind, (a, f) in o.by_kind.items():
            kinds.setdefault(kind, [0, 0])
            kinds[kind][0] += a
            kinds[kind][1] += f
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} failed of {attempted} ops)")
    for kind, (a, f) in sorted(kinds.items()):
        print(f"# op {kind}: {a} attempted, {f} failed")
    if "negative-control" in kinds:
        a, f = kinds["negative-control"]
        print(f"# negative controls: {a - f} of {a} validated FAIL as required")
    for label, value in notes.items():
        print(f"# {label} = {value!r} (reported, not checked)")
    for message in [m for o in all_ops for m in o.messages][:20]:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "waylab", "__init__.py")):
        print(f"benchmark: no waylab package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.setup_probe:
            _, _, (setup_s, raw_setup_s) = set_up(args, workdir)
            print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
            return 0
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
