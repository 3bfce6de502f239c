#!/usr/bin/env python3
"""Benchmark of the wardrop package: one workload, one seed, one run.

    python3 perfbench/run.py --workload potential-solve --seed 1 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The workload's ops run one at a time from this process (a closed loop) in
whole passes until they have been timed for ``--seconds`` (default:
``run_seconds`` of BENCHMARK.json).  End-to-end times are wall times scaled
to a reference machine speed (see "machine speed" below).  Each op's output
is checked by the benchmark's own code right after the op, outside the
timed call.  A summary goes to stdout, and the last line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` its
per-layer metrics.  ``--out FILE`` also writes the run with its provenance
(see suite.py).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
DEFAULT_SEED = 1
HELD_OUT_SEED = 7  # not used while tuning; a claimed gain must also hold here

# One BLAS thread: with `sweep --jobs 2` no op then runs more threads than
# the two cores of the reference machine.
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 7
STARTUP_SAMPLES = 5
# op_tail_s: per workload, the highest of p99/p95/p90/p75/p50 with at least
# ten ops beyond it in a run of the default length.  A run always makes
# enough ops for that (10 / (1 - p) of them), so the percentile is fixed.
# op_p50_s, op_tail_s and ops_per_s are taken over the workload's ops, each
# at its median time over the run's passes.  Every pass runs the same ops,
# and the machine's speed drifts from pass to pass; pooled over all ops of a
# run, the median and the tail fell between ops of quite different size and
# jumped with that drift.
TAIL_PERCENTILE = {"potential-solve": 90.0, "classes-deviated": 95.0, "cli-pipeline": 75.0}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write this run, with provenance, as JSON")
    parser.add_argument("--spans", help="trace mode: span file (default under .bench_work/)")
    parser.add_argument("--child", choices=("setup", "memory"),
                        help="setup: build the workload's inputs and exit (times set-up); "
                             "memory: also run one unchecked pass and print the peak RSS")
    return parser.parse_args(argv)


# -- machine speed -------------------------------------------------------------
#
# The reference machine is a VM with two vCPUs on a shared host, and its
# speed changes by up to 1.6x over seconds to minutes as the host's other
# tenants come and go.  Ten runs of unchanged code, a few minutes apart,
# spread by up to 0.44 of their median in wall time.  So every timed call
# is bracketed by a fixed pure-Python reference loop, timed right before
# and right after it, and the end-to-end times are reported in seconds of
# a machine on which that loop takes REF_NOMINAL_S: wall time scaled by
# REF_NOMINAL_S over the mean of the two brackets.  The loop is the
# benchmark's own code, so a change to wardrop moves the scaled times as
# it moves the wall times; a slower or faster host moves neither.  The
# unscaled wall times are kept in the run's details.

REF_ITERATIONS = 16_000
REF_NOMINAL_S = 0.0021  # the loop's time on the reference machine in its fast state


def reference_loop(n: int = REF_ITERATIONS) -> float:
    """Scalar float arithmetic in a Python loop, like a latency evaluation.
    It allocates no container, so it never starts a garbage collection
    that would charge an op's garbage to the bracket."""
    acc = 0.0
    for i in range(n):
        x = (i % 97) * 0.01
        acc += ((0.125 * x + 0.75) * x + 1.25) * x + 0.5
    return acc


def reference_seconds() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """Wall seconds in seconds of the reference machine."""
    return seconds * REF_NOMINAL_S * 2.0 / (ref_before + ref_after)


def pin_to_one_cpu() -> None:
    """Run this process, and the processes it starts, on one CPU.

    Each vCPU of the reference machine changes speed on its own (the speeds
    of its two vCPUs, sampled side by side, correlate at 0.1), so the
    brackets only tell an op's speed when they run on the op's CPU.  The
    one op that asks for more CPUs, ``sweep --jobs 2``, gets them back
    (see workloads.py).
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


# -- the closed loop ------------------------------------------------------------


@dataclass
class Record:
    op: object
    wall: float  # wall seconds of the timed call
    seconds: float  # the same, scaled to the reference machine
    failure: str | None
    refused: bool


def run_op(op, refused_type) -> Record:
    """Time one op, bracketed by the reference loop, then check its output
    outside the timed call.

    Each op starts from a collected heap, so where the garbage collector
    runs does not depend on the op order or on the checks.
    """
    gc.collect()
    before = reference_seconds()
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # the loop must go on; the failure is reported
        wall = time.perf_counter() - t0
        return Record(op, wall, scaled(wall, before, reference_seconds()),
                      f"raised {type(exc).__name__}: {exc}", False)
    wall = time.perf_counter() - t0
    seconds = scaled(wall, before, reference_seconds())
    try:
        if op.collect is not None:
            out = op.collect(out)
        failure = op.check(out)
    except Exception as exc:  # a malformed output is a failed op
        failure = f"check raised {type(exc).__name__}: {exc}"
    return Record(op, wall, seconds, failure, failure is None and isinstance(out, refused_type))


def run_passes(ops, seconds, refused_type, min_ops=1, on_op=None, on_pass_end=None):
    """Whole passes over ``ops`` until they have been timed for ``seconds``
    and at least ``min_ops`` ops have run.

    Outputs are checked as they come and then dropped, so memory does not
    grow with the number of passes.
    """
    records = []
    passes = 0
    measured = 0.0
    while True:
        passes += 1
        for op in ops:
            if on_op is not None:
                on_op(passes, op)
            records.append(run_op(op, refused_type))
            measured += records[-1].wall
        if on_pass_end is not None:
            on_pass_end(passes)
        if measured >= seconds and len(records) >= min_ops:
            return records, passes


# Peak RSS of the wardrop subprocesses of one cli-pipeline pass, run one at
# a time from this small helper.  Linux counts in a process's ru_maxrss the
# memory of the process that spawned it, so the spawner has to be small.
CLI_MEMORY_HELPER = """
import json, resource, subprocess, sys
for cmd in json.loads(sys.argv[1]):
    subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
"""


def memory_pass(ops) -> float:
    """One pass over ``ops`` with no checks; this process's peak resident
    memory in MB.  It is read as VmHWM, the peak of this process's own
    memory image: ru_maxrss would also count the image of the benchmark
    process that spawned this one."""
    for op in ops:
        gc.collect()
        with contextlib.suppress(Exception):  # the checked run reports failures
            op.run()
    with open("/proc/self/status", encoding="utf-8") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return kb / 1024.0


def child_cmd(args, mode) -> list:
    return [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--child", mode]


def scaled_wall_of(cmd) -> float:
    """A command's wall time, scaled to the reference machine."""
    before = reference_seconds()
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    return scaled(wall, before, reference_seconds())


def setup_seconds(args) -> float:
    """Median time, scaled to the reference machine, of fresh processes
    that import wardrop and build the workload's inputs."""
    return statistics.median(scaled_wall_of(child_cmd(args, "setup"))
                             for _ in range(SETUP_SAMPLES))


def peak_rss_mb(args, ops) -> float:
    """Peak RSS of the program alone, outside this process, so that the
    checker's memory (scipy, dense arrays) does not count: of a fresh
    process that builds the inputs and runs one pass without checks, or
    for cli-pipeline of the largest wardrop subprocess of one pass."""
    if args.workload == "cli-pipeline":
        import workloads

        cmds = json.dumps([workloads.cli_command(op.argv) for op in ops])
        cmd = [sys.executable, "-c", CLI_MEMORY_HELPER, cmds]
    else:
        cmd = child_cmd(args, "memory")
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    return float(out.stdout.split()[-1])


# -- untraced and traced runs -----------------------------------------------------


def build(args, workdir, in_process):
    """The workload's ops, in an order drawn from the seed."""
    import workloads

    ops = workloads.BUILDERS[args.workload](args.seed, workdir, in_process, dict(os.environ))
    random.Random(f"order:{args.seed}").shuffle(ops)
    # The inputs live for the whole run: keep them out of the collections
    # that run_op makes before every op.
    gc.collect()
    gc.freeze()
    return ops


def untraced(args, workdir):
    import numpy as np
    import workloads

    ops = build(args, workdir, in_process=False)
    percentile = TAIL_PERCENTILE[args.workload]
    records, passes = run_passes(ops, args.seconds, workloads.Refused,
                                 min_ops=round(1000 / (100 - percentile)))
    times = [r.seconds for r in records]
    n = len(times)
    refused = sum(r.refused for r in records)
    per_pass = len(ops)
    pass_seconds = [sum(times[k:k + per_pass]) for k in range(0, n, per_pass)]
    op_seconds = {op.name: [r.seconds for r in records if r.op is op] for op in ops}
    typical = [statistics.median(t) for t in op_seconds.values()]
    metrics = {
        "op_p50_s": statistics.median(typical),
        "op_tail_s": float(np.percentile(typical, percentile)),
        "ops_per_s": per_pass / sum(typical),
        "success_rate": (n - sum(1 for r in records if r.failure) - refused) / n,
        "peak_rss_mb": peak_rss_mb(args, ops),
        "setup_s": setup_seconds(args),
    }
    walls = [r.wall for r in records]
    details = {"passes": passes, "ops": n, "refused": refused,
               "op_tail_percentile": percentile, "pass_seconds": pass_seconds,
               "pass_wall_seconds": [sum(walls[k:k + per_pass]) for k in range(0, n, per_pass)],
               "op_seconds": op_seconds,
               "op_wall_seconds": {op.name: [r.wall for r in records if r.op is op]
                                   for op in ops}}
    return records, metrics, details


def traced(args, workdir, layer_names):
    import tracing
    import workloads

    tracer = tracing.Tracer()
    before = reference_seconds()
    tracer.install()
    ops = build(args, workdir, in_process=True)
    tracer.uninstall()
    setup_speed = scaled(1.0, before, reference_seconds())
    tracer.close_pass("setup")

    def on_op(pass_no, op):
        tracer.op = f"p{pass_no}/{op.name}"

    tracer.install()
    records, passes = run_passes(ops, args.seconds, workloads.Refused, on_op=on_op,
                                 on_pass_end=lambda pass_no: tracer.close_pass(f"p{pass_no}"))
    tracer.uninstall()
    # one untraced pass afterwards, as warm as the traced ones, for the overhead
    base, _ = run_passes(ops, 0.0, workloads.Refused)

    setup = tracer.totals("setup")
    per_pass = [tracer.totals(f"p{k}") for k in range(1, passes + 1)]
    # Span seconds are scaled like the end-to-end times: set-up's by its own
    # brackets, a pass's by the ratio of its scaled to its wall op time.
    n = len(ops)
    pass_speed = [sum(r.seconds for r in records[k:k + n]) / sum(r.wall for r in records[k:k + n])
                  for k in range(0, len(records), n)]

    def value(name):
        if name.endswith((".s", "_s")):
            return (setup.get(name, 0.0) * setup_speed
                    + statistics.fmean(p.get(name, 0.0) * f for p, f in zip(per_pass, pass_speed)))
        return setup.get(name, 0.0) + statistics.fmean(p.get(name, 0.0) for p in per_pass)

    sweep_rows = sum(op.rows for op in ops)
    sweep_s = value("cli.sweep.s")
    derived = {
        "cli.startup_s": statistics.median(
            scaled_wall_of([sys.executable, "-c", "import wardrop.cli"])
            for _ in range(STARTUP_SAMPLES)),
        "cli.sweep.rows_per_s": sweep_rows / sweep_s if sweep_s else 0.0,
        "trace.overhead": (sum(r.seconds for r in records) / passes
                           / sum(r.seconds for r in base)),
    }
    spans = Path(args.spans) if args.spans else WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans)
    metrics = {name: derived[name] if name in derived else value(name) for name in layer_names}
    details = {"passes": passes, "ops": len(base) + len(records),
               "refused": sum(r.refused for r in records + base), "spans": str(spans)}
    return records + base, metrics, details


# -- provenance ----------------------------------------------------------------------


def provenance(args) -> dict:
    import numpy

    def git(*cmd):
        try:
            return subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no", "--", "src")
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "wardrop").glob("*.py")))
    return {
        "commit": commit, "src_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": int(BLAS_THREADS), "seed": args.seed, "src_lines": src_lines,
    }


# -- entry point -----------------------------------------------------------------------


def metric_units(trace: int) -> dict:
    """Metric name -> unit, from BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if "WARDROP_TOL" in os.environ:
        print("error: WARDROP_TOL is set; the benchmark runs only at the default "
              "tolerance, so a looser one cannot pass as a gain", file=sys.stderr)
        return 2
    if not (SRC / "wardrop" / "__init__.py").is_file():
        print(f"error: no wardrop package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    units = metric_units(args.trace)
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = str(SRC)  # for the CLI subprocesses
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.child:
            ops = build(args, workdir, in_process=False)
            if args.child == "memory":
                print(memory_pass(ops))
            return 0
        if args.trace:
            records, metrics, details = traced(args, workdir, list(units))
        else:
            records, metrics, details = untraced(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f"{r.op.name}: {r.failure}" for r in records if r.failure]
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {details['passes']}  ops {details['ops']}  refused {details['refused']}")
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:>16.6g} {unit}")
    if "op_tail_percentile" in details:
        print(f"  op_tail_s is the p{details['op_tail_percentile']:g} of {details['ops']} ops "
              f"in {details['passes']} passes, each op at its median over the passes")
    for msg in failures[:20]:
        print(f"  FAILED {msg}")
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "provenance": provenance(args),
                  "details": details, "failures": failures[:20], "result": result}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
