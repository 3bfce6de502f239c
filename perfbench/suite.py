#!/usr/bin/env python3
"""Results sets: repeated benchmark runs, and the comparison of two sets.

    python3 perfbench/suite.py run --seeds 1,2,3 --trace-seeds 1,1 --out set.json
    python3 perfbench/suite.py show set.json
    python3 perfbench/suite.py compare parent.json change.json

``run`` calls run.py once per workload of BENCHMARK.json and seed (and once
per trace seed with ``--trace 1``), each for the file's ``run_seconds``,
keeps every run's record with its provenance, writes the set and prints it.  ``show`` prints a set: per workload and metric the
median, quartiles and spread (quartile distance over median) next to the
metric's bound.  ``compare`` pairs the runs of two sets by seed and prints,
per workload and metric, each side's median and quartiles, the share of
pairs the change won, and a verdict against BENCHMARK.json:

* improved   -- the change won at least 9 of 10 pairs and the medians differ
                by more than the parent's quartile distance;
* unresolved -- a run-to-run spread exceeds the bound, unless every run of
                the change reads better than every run of the parent;
* regressed  -- the change's median is worse by more than the bound;
* unchanged  -- otherwise.

Per-layer metrics have no bound; they are reported improved or regressed
by the pair rule, unresolved otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def metric_specs() -> dict:
    s = spec()
    return {m["name"]: m for m in s["end_to_end"] + s["per_layer"]}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- run ----------------------------------------------------------------------


def one_run(workload, seed, trace) -> dict:
    with tempfile.NamedTemporaryFile(suffix=".json", dir=ROOT / ".bench_work") as tmp:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--trace", str(trace), "--out", tmp.name],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"run.py failed on {workload} seed {seed}:\n{proc.stderr}")
        return json.loads(Path(tmp.name).read_text(encoding="utf-8"))


def cmd_run(args) -> int:
    s = spec()
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else []
    trace_seeds = [int(s) for s in args.trace_seeds.split(",")] if args.trace_seeds else []
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    runs = []
    for workload in (w["name"] for w in s["workloads"]):
        for trace, seed_list in ((0, seeds), (1, trace_seeds)):
            for seed in seed_list:
                record = one_run(workload, seed, trace)
                print(f"{workload} seed {seed} trace {trace}: correct {record['result']['correct']}"
                      f" attempted {record['result']['attempted']}", file=sys.stderr, flush=True)
                runs.append(record)
    results = {"label": args.label, "seconds": s["run_seconds"], "runs": runs}
    Path(args.out).write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    show(results)
    return 0


# -- show ---------------------------------------------------------------------


def grouped(results) -> dict:
    """(workload, trace) -> metric -> {seed: [values]}."""
    out: dict = {}
    for run in results["runs"]:
        key = (run["workload"], run["trace"])
        for name, m in run["result"]["metrics"].items():
            out.setdefault(key, {}).setdefault(name, {}).setdefault(run["seed"], []).append(m["value"])
    return out


def show(results) -> None:
    specs = metric_specs()
    prov = results["runs"][0]["provenance"] if results["runs"] else {}
    print(f"commit {prov.get('commit')} src_dirty {prov.get('src_dirty')}  nproc {prov.get('nproc')}"
          f"  cpu {prov.get('cpu_model')}  python {prov.get('python')}  numpy {prov.get('numpy')}"
          f"  blas_threads {prov.get('blas_threads')}  src_lines {prov.get('src_lines')}")
    for (workload, trace), metrics in sorted(grouped(results).items()):
        runs = [r for r in results["runs"] if r["workload"] == workload and r["trace"] == trace]
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"\n{workload}  {'traced' if trace else 'untraced'}  runs {len(runs)}"
              f"  seeds {sorted({r['seed'] for r in runs})}  failed ops {failed}")
        print(f"  {'metric':38s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'spread':>7s} {'bound':>6s}")
        for name, by_seed in metrics.items():
            values = [v for vs in by_seed.values() for v in vs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = specs[name].get("bound")
            note = ""
            if trace and all(len(set(vs)) == 1 for vs in by_seed.values()) and \
                    any(len(vs) > 1 for vs in by_seed.values()):
                note = " exact repeat"
            print(f"  {name:38s} {specs[name]['unit']:6s} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {spread:7.3f} {'' if bound is None else bound:>6}{note}")


def cmd_show(args) -> int:
    show(json.loads(Path(args.results).read_text(encoding="utf-8")))
    return 0


# -- compare ----------------------------------------------------------------------


def verdict(parent, change, better, bound) -> tuple[str, float]:
    """Pairs are matched by position (seed order); returns (verdict, share won)."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    won = wins / len(pairs)
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    gain = sign * (pmed - cmed)
    if won >= 0.9 and gain > pq3 - pq1:
        return "improved", won
    if bound is None:
        if losses / len(pairs) >= 0.9 and -gain > pq3 - pq1:
            return "regressed", won
        return "unresolved", won
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    spread = max((pq3 - pq1) / pmed if pmed else 0.0, (cq3 - cq1) / cmed if cmed else 0.0)
    if spread > bound and not all_better:
        return "unresolved", won
    if pmed and -gain / abs(pmed) > bound:
        return "regressed", won
    return "unchanged", won


def cmd_compare(args) -> int:
    specs = metric_specs()
    parent = grouped(json.loads(Path(args.parent).read_text(encoding="utf-8")))
    change = grouped(json.loads(Path(args.change).read_text(encoding="utf-8")))
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        print(f"\n{workload}  {'traced' if trace else 'untraced'}")
        print(f"  {'metric':38s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}"
              f" {'won':>5s}  verdict")
        for name in parent[key]:
            if name not in change[key]:
                continue
            seeds = sorted(set(parent[key][name]) & set(change[key][name]))
            p = [v for s in seeds for v in parent[key][name][s]]
            c = [v for s in seeds for v in change[key][name][s]]
            n = min(len(p), len(c))
            if not n:
                continue
            m = specs[name]
            result, won = verdict(p[:n], c[:n], m["better"], m.get("bound"))
            pq1, pmed, pq3 = quartiles(p)
            cq1, cmed, cq3 = quartiles(c)
            print(f"  {name:38s} {pmed:12.5g} [{pq1:9.4g}, {pq3:9.4g}] "
                  f"{cmed:12.5g} [{cq1:9.4g}, {cq3:9.4g}] {won:5.2f}  {result}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the benchmark repeatedly into a results set")
    run.add_argument("--seeds", default="1", help="comma-separated seeds for untraced runs")
    run.add_argument("--trace-seeds", default="", help="comma-separated seeds for traced runs")
    run.add_argument("--label", default="")
    run.add_argument("--out", required=True)
    run.set_defaults(func=cmd_run)
    show_p = sub.add_parser("show", help="print a results set")
    show_p.add_argument("results")
    show_p.set_defaults(func=cmd_show)
    compare = sub.add_parser("compare", help="compare a parent and a change results set")
    compare.add_argument("parent")
    compare.add_argument("change")
    compare.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
