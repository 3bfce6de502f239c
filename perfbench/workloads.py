"""The three benchmark workloads: their inputs, their ops and each op's check.

Every instance is generated here from the workload seed, through wardrop's
public constructors and generators, so an edit to the test suite cannot
change a workload.  Library calls go through the ``wardrop`` package
attributes (``W.compute_nash_flow``), which the tracer rebinds.

The instances of potential-solve and the 40 best-response instances of
classes-deviated are fixed corpora, not seed draws.  Redrawing them with the
workload seed moved the metrics by more than any bound the benchmark could
set: the 8x8 grid solve took 0.6 s to 4.1 s across latency draws, the
matroid solves 0.002 s to 0.34 s, and the number of certified best-response
solves was 9.5 of 40 at the median with quartiles 7.5 and 11 over ten
draws.  The workload seed sets the order of the ops in a pass (see run.py),
the sensitivity densities of classes-deviated and the CLI parameters of
cli-pipeline.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from math import isfinite
from pathlib import Path
from typing import Callable

import numpy as np

import wardrop as W
import wardrop.cli

import checks
from checks import Game

MAX_ROUNDS = 500  # best-response budget for the classes-deviated corpus
RTOL = W.TAU_REL_DEFAULT  # the library's working tolerance; WARDROP_TOL is refused


@dataclass
class Op:
    """One closed-loop operation.

    ``run`` is the timed call.  ``collect`` (untimed) gathers what a check
    needs from files the op wrote; ``check`` returns None or a failure
    message.
    """

    name: str
    run: Callable
    check: Callable
    collect: Callable | None = None
    rows: int = 0  # CSV rows a sweep op writes
    argv: list | None = None  # a cli-pipeline op's wardrop CLI arguments


@dataclass(frozen=True)
class Refused:
    """A documented refusal: the solver raised ConvergenceError."""

    achieved: float | None
    message: str


# -- instance recipes (the same recipe as the test corpus) -------------------


def random_latency(rng: random.Random) -> W.LatencyFn:
    kind = rng.choice(("constant", "affine", "polynomial", "piecewise-linear"))
    if kind == "constant":
        return W.LatencyFn.constant(rng.uniform(0.1, 3.0))
    if kind == "affine":
        return W.LatencyFn.affine(rng.uniform(0.05, 2.0), rng.uniform(0.1, 2.0))
    if kind == "polynomial":
        degree = rng.randint(1, 3)
        return W.LatencyFn.polynomial(
            [rng.uniform(0.05, 1.0)] + [rng.uniform(0.0, 1.5) for _ in range(degree)]
        )
    v0 = rng.uniform(0.05, 1.5)
    x1 = rng.uniform(0.3, 2.0)
    rise = rng.uniform(0.0, 2.0)
    return W.LatencyFn.piecewise_linear(
        ((0.0, v0), (x1, v0 + rise)), final_slope=rng.uniform(0.0, 2.0)
    )


def random_parallel_instance(rng: random.Random) -> W.GameInstance:
    n = rng.randint(2, 6)
    demand = rng.uniform(0.5, 3.0)
    ids = [f"e{i}" for i in range(n)]
    resources = tuple(W.Resource(rid, random_latency(rng)) for rid in ids)
    graph = W.NetworkAnnotation(
        nodes=("s", "t"), arcs=tuple((rid, "s", "t") for rid in ids), source="s", sink="t"
    )
    return W.GameInstance(
        resources, (W.Commodity(demand, tuple((rid,) for rid in ids)),), graph=graph
    )


def random_profile(rng: random.Random, instance: W.GameInstance) -> W.SensitivityProfile:
    classes = []
    for commodity in instance.commodities:
        h = rng.randint(1, 3)
        gammas = sorted(rng.sample([round(0.1 * g, 1) for g in range(1, 31)], h))
        weights = [rng.uniform(0.2, 1.0) for _ in range(h)]
        total = sum(weights)
        parts = [commodity.demand * w / total for w in weights[:-1]]
        parts.append(commodity.demand - sum(parts))
        classes.append(tuple(zip(parts, gammas)))
    return W.SensitivityProfile(tuple(classes))


def random_deviations(
    rng: random.Random, instance: W.GameInstance, beta: float
) -> W.DeviationProfile:
    """Edge-induced deviations inside [0, beta * latency] at every load."""
    fns = {}
    for res in instance.resources:
        pick = rng.random()
        if pick < 0.3:
            fns[res.id] = W.DeviationFn.zero()
        elif pick < 0.65:
            fns[res.id] = W.DeviationFn.constant(rng.uniform(0.0, beta * res.latency(0.0)))
        else:
            fns[res.id] = W.DeviationFn.scaled(rng.uniform(0.0, beta))
    return W.DeviationProfile(beta, edge_fns=fns)


def grid_instance(k: int, rng: random.Random) -> W.GameInstance:
    """k x k grid DAG (arcs right and down), unit demand over every
    source-sink path: C(2k-2, k-1) strategies."""
    nodes, arcs, resources = [], [], []
    for i in range(k):
        for j in range(k):
            nodes.append(f"n{i}_{j}")
            for tag, a, b in (("r", i, j + 1), ("d", i + 1, j)):
                if a < k and b < k:
                    rid = f"{tag}{i}_{j}"
                    arcs.append((rid, f"n{i}_{j}", f"n{a}_{b}"))
                    resources.append(W.Resource(rid, random_latency(rng)))
    graph = W.NetworkAnnotation(tuple(nodes), tuple(arcs), "n0_0", f"n{k - 1}_{k - 1}")
    paths = W.enumerate_st_paths(graph)
    return W.GameInstance(tuple(resources), (W.Commodity(1.0, tuple(paths)),), graph=graph)


# -- shared check helpers ------------------------------------------------------


class LazyGame:
    """The checker's copy of an instance, built on first use so that the
    benchmark's own bookkeeping stays out of set-up time."""

    def __init__(self, instance, deviations=None):
        self.args = (instance, deviations)
        self.game = None

    def __call__(self) -> Game:
        if self.game is None:
            self.game = Game.from_instance(*self.args)
        return self.game


def _rows(flow) -> list:
    return [np.array(flow.values[i], dtype=float) for i in range(len(flow.values))]


def _graph_obj(instance) -> dict:
    g = instance.graph
    return {"arcs": g.arcs, "source": g.source, "sink": g.sink}


class _Once:
    """Runs an expensive check once per op; repeats must reproduce the
    checked loads bit for bit."""

    def __init__(self, fn):
        self.fn = fn
        self.loads = None

    def __call__(self, flow) -> str | None:
        if self.loads is None:
            self.loads = tuple(flow.loads)
            return self.fn(flow)
        if tuple(flow.loads) != self.loads:
            return "repeat of the op returned different loads"
        return None


def _beckmann(game: LazyGame):
    return _Once(lambda flow: checks.check_beckmann(game(), _rows(flow)))


def _plain(game: LazyGame, flow) -> str | None:
    return checks.check_condition(game(), _rows(flow), loads=flow.loads)


# -- potential-solve -------------------------------------------------------------


def _solve(instance):
    flow = W.compute_nash_flow(instance)
    return flow, W.verify_approx_nash(instance, flow, 0.0, rtol=RTOL)


def _check_solve(game, beckmann, out) -> str | None:
    flow, cert = out
    if not cert.passed:
        return f"verify_approx_nash(eps=0) fails (worst slack {cert.worst_slack})"
    return _plain(game, flow) or beckmann(flow)


def _solve_ladder(instance, x):
    flow, cert = _solve(instance)
    ratio = W.empirical_ratio(instance, x, flow)
    alt = W.compute_alternating_path(instance, x, flow)
    return flow, cert, ratio, alt


def _check_ladder(game, beckmann, instance, x, m, eps, out) -> str | None:
    flow, cert, ratio, alt = out
    closed = (1.0 + eps) / (1.0 - eps * (m - 1))
    if not checks.close(ratio.ratio, closed):
        return f"empirical_ratio {ratio.ratio}, closed form {closed}"
    return (
        _check_solve(game, beckmann, (flow, cert))
        or checks.check_condition(game(), _rows(x), eps=[[eps]])
        or checks.check_ratio(game(), _rows(x), _rows(flow), closed, "ladder")
        or checks.check_alternating(_graph_obj(instance), alt.steps, alt.q)
    )


def _solve_matroid(game):
    flow = W.matroid_nash_flow(game)
    return flow, W.verify_matroid_deviated(
        game, flow, method="swap", cross_check=True, rtol=RTOL
    )


def _check_matroid(game, own, x, M, out) -> str | None:
    flow, cert = out
    if not cert.passed:
        return f"verify_matroid_deviated(swap) fails (worst slack {cert.worst_slack})"
    msg = _plain(own, flow)
    if msg or x is None:
        return msg
    if not checks.close(game.meta["achieved"], M):
        return f"matroid family reports M={game.meta['achieved']}, closed form {M}"
    return checks.check_ratio(own(), _rows(x), _rows(flow), M, "matroid")


def potential_solve(seed: int, workdir: Path, in_process: bool, env: dict) -> list[Op]:
    rng = random.Random(0)  # the fixed corpus; see the module docstring
    ops = []
    for m in (10, 20, 40):
        eps = 0.5 / (m - 1)
        instance, x, _z, _bound = W.gen_braess_subcritical(m, eps)
        game = LazyGame(instance)
        ops.append(Op(
            f"ladder-m{m}",
            partial(_solve_ladder, instance, x),
            partial(_check_ladder, game, _beckmann(game), instance, x, m, eps),
        ))
    for k in (5, 6, 7, 8):
        instance = grid_instance(k, rng)
        game = LazyGame(instance)
        ops.append(Op(f"grid-{k}x{k}", partial(_solve, instance),
                      partial(_check_solve, game, _beckmann(game))))
    for s in range(41):
        instance, _tree = W.gen_random_sp(s, depth=8, max_leaves=64)
        game = LazyGame(instance)
        ops.append(Op(f"random-sp-{s}", partial(_solve, instance),
                      partial(_check_solve, game, _beckmann(game))))
    for n, k in ((10, 4), (12, 5), (14, 6)):
        resources = tuple(W.Resource(f"e{i}", random_latency(rng)) for i in range(n))
        matroid = W.UniformMatroidGame(resources, k)
        own = LazyGame(matroid.instance)  # enumerates the bases in set-up
        ops.append(Op(f"matroid-C{n}-{k}", partial(_solve_matroid, matroid),
                      partial(_check_matroid, matroid, own, None, None)))
    for k in (4, 5, 6):
        eps = 0.5 / (k - 1)
        matroid, x, _z = W.gen_matroid_unbounded(k, eps)
        own = LazyGame(matroid.instance)
        M = (1.0 + eps) / (1.0 - eps * (k - 1))
        ops.append(Op(f"matroid-unbounded-k{k}", partial(_solve_matroid, matroid),
                      partial(_check_matroid, matroid, own, x, M)))
    return ops


# -- classes-deviated --------------------------------------------------------------


def _classes_op(family, density, eps_prime, beta):
    profile = W.discretize_density(density, eps_prime)
    r = [d for d, _ in profile.classes[0]]
    g = [v for _, v in profile.classes[0]]
    if family == "dr":
        instance, profile, deviations, x, _z, bound = W.gen_two_arc_dr(beta, r, g)
    else:
        instance, profile, x, _z, bound = W.gen_parallel_sr(beta, r, g)
        deviations = None
    flow = W.compute_nash_flow(instance, profile)
    dev_cert = None
    if deviations is not None:
        dev_cert = W.verify_deviated_nash(instance, x, deviations, profile, rtol=RTOL)
    approx = W.verify_approx_nash(instance, x, profile.scaled(beta), rtol=RTOL)
    discrete = (W.dr_bound_discrete if family == "dr" else W.sr_bound_discrete)(beta, r, g)
    return dict(instance=instance, profile=profile, deviations=deviations, x=x,
                flow=flow, bound=bound, discrete=discrete, dev_cert=dev_cert,
                approx=approx, beta=beta)


def _check_classes(family, n, out) -> str | None:
    instance, profile, x, flow = out["instance"], out["profile"], out["x"], out["flow"]
    beta = out["beta"]
    demands = np.array([d for d, _ in profile.classes[0]])
    gammas = np.array([v for _, v in profile.classes[0]])
    if not n <= len(gammas) <= n + 1:
        return f"discretization made {len(gammas)} classes, expected {n}"
    r = demands / demands.sum()
    if family == "dr":
        tails = np.cumsum(r[::-1])[::-1]
        j = int(np.argmax(gammas * tails))
        closed = 1.0 + beta * float(gammas[j] * tails[j])
        if not checks.close(instance.meta["achieved"], closed):
            return f"two-arc family reports achieved={instance.meta['achieved']}, closed form {closed}"
        if not out["dev_cert"].passed:
            return "verify_deviated_nash rejects the tight flow"
    else:
        closed = 1.0 + beta * float(r @ gammas)
    for name in ("bound", "discrete"):
        if not checks.close(out[name].value, closed):
            return f"{name} is {out[name].value}, closed form {closed}"
    if not out["approx"].passed:
        return "verify_approx_nash(profile.scaled(beta)) rejects the tight flow"
    game = Game.from_instance(instance, out["deviations"])
    xrows = _rows(x)
    return (
        checks.check_condition(game, _rows(flow), loads=flow.loads)
        or checks.check_condition(game, xrows, eps=[beta * gammas])
        or (family == "dr" and checks.check_condition(game, xrows, gammas=[gammas]))
        or checks.check_ratio(game, xrows, _rows(flow), closed, f"{family} family")
        or checks.check_beckmann(game, _rows(flow))
    )


def _best_response(instance, deviations, profile):
    try:
        return W.heterogeneous_parallel_equilibrium(
            instance, deviations, profile, max_rounds=MAX_ROUNDS
        )
    except W.ConvergenceError as exc:
        return Refused(exc.achieved, str(exc))


def _check_best_response(game, gammas, out) -> str | None:
    if isinstance(out, Refused):
        if out.achieved is None or not isfinite(out.achieved) or out.achieved == 0.0:
            return f"refusal carries no residual: {out.message}"
        return None
    return checks.check_condition(game(), _rows(out), gammas=[gammas], loads=out.loads)


def classes_deviated(seed: int, workdir: Path, in_process: bool, env: dict) -> list[Op]:
    rng = random.Random(f"classes-deviated:{seed}")
    ops = []
    # 10^4 classes only as the two-arc family: parallel-sr has one link per
    # class, so its flows grow with the square of the class count.
    for n, families in ((100, ("sr", "dr")), (1000, ("sr", "dr")), (10_000, ("dr",))):
        hi = rng.uniform(1.0, 3.0)
        density = W.DensityFn.triangular(0.0, rng.uniform(0.1, 0.9) * hi, hi)
        beta = rng.uniform(0.5, 2.0)
        for family in families:
            ops.append(Op(f"{family}-{n}", partial(_classes_op, family, density, hi / n, beta),
                          partial(_check_classes, family, n)))
    for i in range(40):
        r = random.Random(i)
        instance = random_parallel_instance(r)
        profile = random_profile(r, instance)
        deviations = random_deviations(r, instance, r.uniform(0.2, 1.0))
        game = LazyGame(instance, deviations)
        gammas = np.array([v for _, v in profile.classes[0]])
        ops.append(Op(f"best-response-{i}",
                      partial(_best_response, instance, deviations, profile),
                      partial(_check_best_response, game, gammas)))
    return ops


# -- cli-pipeline ----------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    stdout: str
    files: dict


def cli_in_process(argv: list[str]) -> CliResult:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = wardrop.cli.main(argv)
    return CliResult(code, buf.getvalue(), {})


def cli_command(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "wardrop.cli", *argv]


def _all_cpus() -> None:
    """Let a process started from the benchmark, which runs on one CPU
    (run.py), use every CPU the machine lets it have."""
    os.sched_setaffinity(0, range(os.cpu_count() or 1))


def cli_subprocess(env: dict, argv: list[str], wide: bool = False) -> CliResult:
    proc = subprocess.run(
        cli_command(argv),
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False,
        preexec_fn=_all_cpus if wide and hasattr(os, "sched_setaffinity") else None,
    )
    return CliResult(proc.returncode, proc.stdout, {"stderr": proc.stderr})


def _read_files(paths, result: CliResult) -> CliResult:
    """Read what an op wrote, then delete it so the next pass cannot pass
    on a stale file."""
    for p in map(Path, paths):
        result.files[p.name] = p.read_text(encoding="utf-8") if p.exists() else None
        p.unlink(missing_ok=True)
    return result


def _gen_collect(stem: Path, result: CliResult) -> CliResult:
    return _read_files([f"{stem}.json", f"{stem}.x.json", f"{stem}.z.json"], result)


def _file_flows(obj: dict, records_x, records_z):
    game = Game.from_file_obj(obj)
    shape = [len(c.get("classes", [None])) for c in obj["commodities"]]
    x = checks.values_from_records(game, records_x, shape)
    z = checks.values_from_records(game, records_z, shape)
    gammas = None
    if "classes" in obj["commodities"][0]:
        gammas = [np.array([c["value"] for c in com["classes"]]) for com in obj["commodities"]]
    return game, x, z, gammas


def _expected(kind: str, p: dict) -> float:
    """Closed-form cost ratio of the family's tight flow."""
    if kind == "braess":
        return (1.0 + p["eps"]) / (1.0 - p["eps"] * (p["m"] - 1))
    if kind == "matroid":
        return (1.0 + p["eps"]) / (1.0 - p["eps"] * (p["k"] - 1))
    r = np.array(p["r"]) / sum(p["r"])
    g = np.array(p["gamma"])
    tails = np.cumsum(r[::-1])[::-1]
    return 1.0 + p["beta"] * float(np.max(g * tails))


def _check_gen_files(kind, p, instance_text, x_text, z_text) -> str | None:
    obj = json.loads(instance_text)
    game, x, z, gammas = _file_flows(obj, json.loads(x_text), json.loads(z_text))
    expected = _expected(kind, p)
    eps = None
    if kind in ("braess", "matroid"):
        eps = [np.full(len(x[0]), p["eps"])]
        devs = None
    else:
        devs = gammas
    return (
        checks.check_condition(game, z)
        or checks.check_condition(game, x, eps=eps, gammas=devs)
        or checks.check_ratio(game, x, z, expected, f"{kind} files")
    )


def _check_gen(kind, p, stem: Path, result: CliResult) -> str | None:
    if result.code != 0:
        return f"gen exited {result.code}: {result.files.get('stderr', '')[-200:]}"
    echo = json.loads(result.stdout)
    expected = _expected(kind, p)
    reported = echo["bound"]["value"] if kind == "braess" else echo["achieved"]
    if not checks.close(reported, expected):
        return f"gen {kind} reports {reported}, closed form {expected}"
    f = result.files
    return _check_gen_files(kind, p, f[f"{stem.name}.json"], f[f"{stem.name}.x.json"],
                            f[f"{stem.name}.z.json"])


def _check_analyze(kind, p, inputs: Path, report_name, result: CliResult) -> str | None:
    if result.code != 0:
        return f"analyze exited {result.code}: {result.files.get('stderr', '')[-200:]}"
    report = json.loads(result.files[report_name])
    obj = json.loads((inputs / f"{kind}.json").read_text(encoding="utf-8"))
    game, _x, z, _g = _file_flows(
        obj, [], json.loads((inputs / f"{kind}.z.json").read_text(encoding="utf-8"))
    )
    nash = game.cost(z)
    if report["nash"]["source"] != "file" or not checks.close(report["nash"]["cost"], nash):
        return f"analyze reports Nash cost {report['nash']['cost']}, the equilibrium costs {nash}"
    expected = _expected(kind, p)
    ratio = report["flow"]["ratio"]["ratio"]
    if not checks.close(ratio, expected):
        return f"analyze reports ratio {ratio}, closed form {expected}"
    blocks = ("approx",) if kind in ("braess", "matroid") else ("approx_classes", "deviated")
    for block in blocks:
        if report["flow"][block]["pass"] is not True:
            return f"analyze: {block} certificate fails on the tight flow"
    if "graph" in obj:
        g = obj["graph"]
        graph = {"arcs": [(a["id"], a["tail"], a["head"]) for a in g["arcs"]],
                 "source": g["source"], "sink": g["sink"]}
        alt = report["alternating"]
        return checks.check_alternating(graph, [tuple(s) for s in alt["steps"]], alt["q"])
    return None


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _check_sweep_braess(path_name, result: CliResult) -> str | None:
    if result.code != 0:
        return f"sweep exited {result.code}"
    rows = _csv_rows(result.files[path_name])
    if len(rows) != 20:
        return f"braess sweep wrote {len(rows)} rows, expected 20"
    for row in rows:
        m, eps = float(row["m"]), float(row["eps"])
        closed = (1.0 + eps) / (1.0 - eps * (m - 1))
        if row["status"] != "ok" or not checks.close(float(row["ratio"]), closed):
            return f"braess sweep row m={row['m']} eps={row['eps']}: {row}"
        if not checks.close(float(row["bound"]), closed):
            return f"braess sweep row bound {row['bound']}, closed form {closed}"
    return None


def _check_sweep_sp(path_name, reference: dict, result: CliResult) -> str | None:
    if result.code != 0:
        return f"sweep exited {result.code}"
    text = result.files[path_name]
    rows = _csv_rows(text)
    if [float(r["seed"]) for r in rows] != [float(s) for s in range(41)]:
        return "random-sp sweep rows do not cover seeds 0..40 in order"
    for row in rows:
        if row["status"] != "ok" or float(row["gap"]) > 1e-9 or row["q"] != "0":
            return f"random-sp sweep row seed {row['seed']}: {row}"
    # every run and every --jobs value must write the same bytes
    if reference.setdefault("csv", text) != text:
        return "random-sp sweep output differs between runs or --jobs values"
    return None


def cli_pipeline(seed: int, workdir: Path, in_process: bool, env: dict) -> list[Op]:
    rng = random.Random(f"cli-pipeline:{seed}")
    inputs, outputs = workdir / "in", workdir / "out"
    inputs.mkdir(parents=True, exist_ok=True)
    outputs.mkdir(parents=True, exist_ok=True)
    run = cli_in_process if in_process else partial(cli_subprocess, env)

    h = 3
    params = {
        "braess": {"m": 20, "eps": rng.uniform(0.2, 0.8) / 19},
        "two-arc": {"beta": rng.uniform(0.5, 2.0),
                    "r": [rng.uniform(0.2, 1.0) for _ in range(h)],
                    "gamma": sorted(rng.sample([0.1 * g for g in range(1, 31)], h))},
        "density": {"beta": rng.uniform(0.5, 2.0), "peak": rng.uniform(0.1, 0.9)},
        "matroid": {"k": 6, "eps": rng.uniform(0.2, 0.8) / 5},
    }
    p = params["density"]
    density = W.DensityFn.triangular(0.0, p["peak"], 1.0)
    profile = W.discretize_density(density, 0.001)
    p["r"] = [d for d, _ in profile.classes[0]]
    p["gamma"] = [v for _, v in profile.classes[0]]

    def gen_argv(kind):
        q = params[kind]
        if kind == "braess":
            return ["gen", "braess-sub", "--m", "20", "--eps", repr(q["eps"])]
        if kind == "two-arc":
            return ["gen", "two-arc-dr", "--beta", repr(q["beta"]),
                    "--r", ",".join(map(repr, q["r"])),
                    "--gamma", ",".join(map(repr, q["gamma"]))]
        if kind == "density":
            return ["gen", "density-discretize", "--density", f"triangular:0,{q['peak']!r},1",
                    "--eps-prime", "0.001", "--beta", repr(q["beta"]), "--which", "dr"]
        return ["gen", "matroid-unbounded", "--k", "6", "--eps", repr(q["eps"])]

    # Set-up writes the analyze inputs through the same entry point, in process.
    for kind in params:
        with contextlib.redirect_stdout(io.StringIO()):
            code = wardrop.cli.main(gen_argv(kind) + ["--out", str(inputs / f"{kind}.json")])
        if code != 0:
            raise RuntimeError(f"set-up could not generate the {kind} input")
    braess_spec = inputs / "sweep-braess.json"
    eps_grid = sorted(rng.uniform(0.01, 0.15) for _ in range(4))
    braess_spec.write_text(json.dumps(
        {"family": "braess-sub", "params": {"m": [3, 4, 5, 6, 7], "eps": eps_grid}}))
    sp_spec = inputs / "sweep-sp.json"
    sp_spec.write_text(json.dumps({"family": "random-sp", "params": {
        "seed": {"start": 0, "stop": 40, "step": 1}, "depth": 6, "max_leaves": 32}}))

    def cli_op(name, argv, check, collect, rows=0, wide=False):
        call = partial(run, argv, wide=True) if wide and not in_process else partial(run, argv)
        return Op(name, call, check, collect, rows, argv)

    ops = []
    for kind in params:
        stem = outputs / f"gen-{kind}"
        ops.append(cli_op(f"gen-{kind}", gen_argv(kind) + ["--out", f"{stem}.json"],
                          partial(_check_gen, kind, params[kind], stem),
                          partial(_gen_collect, stem)))
    # analyze loads the family's equilibrium (--flow-ref) instead of solving:
    # Frank-Wolfe is potential-solve's subject, and its CPU-bound solve made
    # this workload's tail follow machine-speed drift (0.49 s to 0.87 s for
    # one unchanged op across runs).
    for kind in params:
        argv = ["analyze", "--instance", str(inputs / f"{kind}.json"),
                "--flow", str(inputs / f"{kind}.x.json"),
                "--flow-ref", str(inputs / f"{kind}.z.json")]
        if kind in ("braess", "matroid"):
            argv += ["--eps", repr(params[kind]["eps"])]
        else:
            argv += ["--beta", repr(params[kind]["beta"])]
        report = outputs / f"analyze-{kind}.json"
        ops.append(cli_op(f"analyze-{kind}", argv + ["--out", str(report)],
                          partial(_check_analyze, kind, params[kind], inputs, report.name),
                          partial(_read_files, [report])))
    braess_csv = outputs / "sweep-braess.csv"
    ops.append(cli_op("sweep-braess-jobs1",
                      ["sweep", "--spec", str(braess_spec), "--out", str(braess_csv),
                       "--jobs", "1", "--no-timing"],
                      partial(_check_sweep_braess, braess_csv.name),
                      partial(_read_files, [braess_csv]), rows=20))
    reference: dict = {}
    for jobs in (1, 2):
        out_csv = outputs / f"sweep-sp-jobs{jobs}.csv"
        ops.append(cli_op(f"sweep-sp-jobs{jobs}",
                          ["sweep", "--spec", str(sp_spec), "--out", str(out_csv),
                           "--jobs", str(jobs), "--no-timing"],
                          partial(_check_sweep_sp, out_csv.name, reference),
                          partial(_read_files, [out_csv]), rows=41, wide=jobs > 1))
    return ops


BUILDERS = {
    "potential-solve": potential_solve,
    "classes-deviated": classes_deviated,
    "cli-pipeline": cli_pipeline,
}
