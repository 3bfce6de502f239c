"""Command line: generate instance families, analyze instances, sweep to CSV.

Subcommands
-----------
``gen FAMILY``      writes an instance file (plus reference flows where the
                    construction defines them) and echoes the applicable
                    bound as JSON on stdout.
``analyze``         validates an instance, solves or loads an equilibrium,
                    optionally verifies a supplied flow, computes the
                    alternating path and applicable bounds, and emits one
                    JSON (or flattened CSV) report.
``sweep``           expands a parameter grid from a spec file and writes one
                    CSV row per combination, measured one at a time in
                    lexicographic parameter order.

Exit codes: 0 success, 2 input error, 3 convergence error, 4 invariant
violation.  The environment variable WARDROP_TOL overrides the relative
tolerance.  All outputs are byte-deterministic for identical inputs except
the runtime_ms sweep column (suppress it with --no-timing).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import sys
import time
from dataclasses import dataclass
from itertools import product
from math import isfinite, prod

from .bounds import (
    BoundValue,
    DensityFn,
    discretize_density,
    dr_bound_continuous,
    dr_bound_discrete,
    sr_bound_continuous,
    sr_bound_discrete,
    stability_upper,
)
from .core import Flow, social_cost, validate_instance
from .equilibria import (
    approx_factors,
    compute_nash_flow,
    empirical_ratio,
    relative_duality_gap,
    verify_approx_nash,
    verify_deviated_nash,
    worst_approx_search,
)
from .errors import InputError, WardropError
from .graphs import (
    compute_alternating_path,
    gen_braess_subcritical,
    gen_braess_supercritical,
    gen_parallel_sr,
    gen_random_sp,
    gen_two_arc_dr,
)
from .jsonio import (
    _load_json,
    dumps_canonical,
    format_float,
    read_flow,
    read_instance,
    write_flow,
    write_instance,
)
from .matroid import gen_matroid_unbounded
from .tolerances import close_leq, tau_rel

FAMILIES = (
    "braess-sub",
    "braess-super",
    "two-arc-dr",
    "parallel-sr",
    "matroid-unbounded",
    "random-sp",
    "density-discretize",
)
METRICS = ("ratio", "bound", "gap", "q")
SWEEP_ROW_CAP = 10**6


# -- parameter parsing -----------------------------------------------------


def _parse_floats(text) -> list[float]:
    if isinstance(text, (list, tuple)):
        return [float(v) for v in text]
    try:
        return [float(part) for part in str(text).split(",") if part.strip() != ""]
    except ValueError as exc:
        raise InputError(f"expected comma-separated floats, got {text!r}") from exc


def _parse_density(text: str) -> DensityFn:
    """uniform:LO,HI | triangular:LO,PEAK,HI | points:X,Y;X,Y;..."""
    if ":" not in text:
        raise InputError(
            f"density spec {text!r} must look like 'uniform:0,1', "
            "'triangular:0,0.5,1' or 'points:0,1;1,1'"
        )
    kind, _, body = text.partition(":")
    arity = {"uniform": 2, "triangular": 3}.get(kind)
    if arity is not None:
        values = _parse_floats(body)
        if len(values) != arity:
            raise InputError(f"{kind} density takes {arity} numbers, got {body!r}")
        return DensityFn.uniform(*values) if kind == "uniform" else DensityFn.triangular(*values)
    if kind == "points":
        points = []
        for chunk in body.split(";"):
            xy = _parse_floats(chunk)
            if len(xy) != 2:
                raise InputError(f"density point {chunk!r} must be 'x,y'")
            points.append((xy[0], xy[1]))
        return DensityFn.from_points(points)
    raise InputError(f"unknown density kind {kind!r}")


def _as_int(name: str, value) -> int:
    if isinstance(value, bool) or value is None:
        raise InputError(f"parameter {name} must be an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise InputError(f"parameter {name} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"parameter {name} must be an integer, got {value!r}") from exc


def _as_float(name: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"parameter {name} must be a float, got {value!r}") from exc


def _need(params: dict, family: str, *names):
    missing = [n for n in names if params.get(n) is None]
    if missing:
        raise InputError(f"family {family} needs parameters: {', '.join(missing)}")


# -- family builders ---------------------------------------------------------


def build_family(family: str, params: dict) -> dict:
    """Construct one instance of a named family.

    Returns a bundle with keys instance, profile, deviations, x, z, bound;
    entries the family does not define are None.
    """
    if family == "braess-sub":
        _need(params, family, "m", "eps")
        instance, x, z, bound = gen_braess_subcritical(
            _as_int("m", params["m"]), _as_float("eps", params["eps"])
        )
        return {"instance": instance, "profile": None, "deviations": None,
                "x": x, "z": z, "bound": bound}
    if family == "braess-super":
        _need(params, family, "m", "eps", "tau")
        instance, x, z, bound = gen_braess_supercritical(
            _as_int("m", params["m"]),
            _as_float("eps", params["eps"]),
            _as_float("tau", params["tau"]),
        )
        return {"instance": instance, "profile": None, "deviations": None,
                "x": x, "z": z, "bound": bound}
    if family == "parallel-sr":
        _need(params, family, "beta", "r", "gamma")
        instance, profile, x, z, bound = gen_parallel_sr(
            _as_float("beta", params["beta"]),
            _parse_floats(params["r"]),
            _parse_floats(params["gamma"]),
        )
        return {"instance": instance, "profile": profile, "deviations": None,
                "x": x, "z": z, "bound": bound}
    if family == "two-arc-dr":
        _need(params, family, "beta", "r", "gamma")
        j = params.get("j")
        eps_prime = params.get("eps_prime")
        instance, profile, deviations, x, z, bound = gen_two_arc_dr(
            _as_float("beta", params["beta"]),
            _parse_floats(params["r"]),
            _parse_floats(params["gamma"]),
            j=None if j is None else _as_int("j", j),
            eps_prime=None if eps_prime is None else _as_float("eps_prime", eps_prime),
        )
        return {"instance": instance, "profile": profile, "deviations": deviations,
                "x": x, "z": z, "bound": bound}
    if family == "matroid-unbounded":
        _need(params, family, "k", "eps")
        M = params.get("M")
        game, x, z = gen_matroid_unbounded(
            _as_int("k", params["k"]),
            _as_float("eps", params["eps"]),
            None if M is None else _as_float("M", M),
        )
        bound = BoundValue.from_obj(game.meta["bound"])
        return {"instance": game.instance, "profile": None, "deviations": None,
                "x": x, "z": z, "bound": bound, "game": game}
    if family == "random-sp":
        _need(params, family, "seed")
        instance, _tree = gen_random_sp(
            _as_int("seed", params["seed"]),
            depth=_as_int("depth", params.get("depth", 4)),
            latency_family=str(params.get("latency_family", "mixed")),
            max_leaves=_as_int("max_leaves", params.get("max_leaves", 10)),
        )
        return {"instance": instance, "profile": None, "deviations": None,
                "x": None, "z": None, "bound": None}
    if family == "density-discretize":
        _need(params, family, "density", "eps_prime")
        density = _parse_density(str(params["density"]))
        eps_prime = _as_float("eps_prime", params["eps_prime"])
        beta = _as_float("beta", params.get("beta", 1.0))
        tail_mass = _as_float("tail_mass", params.get("tail_mass", 0.0))
        which = str(params.get("which", "sr"))
        if which not in ("sr", "dr"):
            raise InputError(f"parameter which must be 'sr' or 'dr', got {which!r}")
        profile = discretize_density(density, eps_prime, tail_mass=tail_mass)
        r = [d for d, _ in profile.classes[0]]
        g = [v for _, v in profile.classes[0]]
        if which == "sr":
            instance, profile, x, z, discrete = gen_parallel_sr(beta, r, g)
            continuous = sr_bound_continuous(beta, density)
            deviations = None
        else:
            instance, profile, deviations, x, z, discrete = gen_two_arc_dr(beta, r, g)
            continuous = dr_bound_continuous(beta, density)
        meta = dict(instance.meta or {})
        meta["family"] = "density-discretize"
        meta["params"] = {
            "density": str(params["density"]),
            "eps_prime": eps_prime,
            "beta": beta,
            "tail_mass": tail_mass,
            "which": which,
        }
        meta["bound"] = continuous.to_obj()
        meta["discrete_bound"] = discrete.to_obj()
        instance = dataclasses.replace(instance, meta=meta)
        x = Flow.build(instance, x.values, profile)
        z = Flow.build(instance, z.values, profile)
        return {"instance": instance, "profile": profile, "deviations": deviations,
                "x": x, "z": z, "bound": continuous, "discrete_bound": discrete}
    raise InputError(f"unknown family {family!r}; choose from {', '.join(FAMILIES)}")


# -- gen ---------------------------------------------------------------------


def _gen_params_from_args(args) -> dict:
    keys = ("m", "eps", "tau", "beta", "r", "gamma", "j", "eps_prime", "k", "M",
            "seed", "depth", "latency_family", "max_leaves", "density",
            "tail_mass", "which")
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def cmd_gen(args) -> int:
    bundle = build_family(args.family, _gen_params_from_args(args))
    instance = bundle["instance"]
    out = args.out or f"{args.family}.json"
    stem = out[: -len(".json")] if out.endswith(".json") else out
    write_instance(out, instance, bundle["profile"], bundle["deviations"])
    files = {"instance": out}
    for name in ("x", "z"):
        flow = bundle[name]
        if flow is not None:
            path = f"{stem}.{name}.json"
            write_flow(path, flow)
            files[name] = path
    echo: dict = {"family": args.family, "files": files}
    bound = bundle["bound"]
    echo["bound"] = None if bound is None else bound.to_obj()
    if bundle.get("discrete_bound") is not None:
        echo["discrete_bound"] = bundle["discrete_bound"].to_obj()
    if instance.meta and "achieved" in instance.meta:
        echo["achieved"] = instance.meta["achieved"]
    print(dumps_canonical(echo))
    return 0


# -- analyze -----------------------------------------------------------------


def cmd_analyze(args) -> int:
    if args.beta is not None and not (isfinite(args.beta) and args.beta >= 0):
        raise InputError(f"--beta must be a nonnegative finite number, got {args.beta}")
    instance, profile, deviations = read_instance(args.instance)
    problems = validate_instance(instance)
    if problems:
        raise InputError("instance invalid: " + "; ".join(problems))
    report: dict = {"instance": args.instance, "valid": True}

    if args.flow_ref:
        reference = read_flow(args.flow_ref, instance, profile)
        cert = verify_approx_nash(instance, reference, 0.0)
        if not cert.passed:
            raise InputError(
                f"--flow-ref {args.flow_ref} is not an equilibrium "
                f"(worst slack {cert.worst_slack})"
            )
        source = "file"
    else:
        reference = compute_nash_flow(instance, profile)
        source = "solved"
    report["nash"] = {
        "source": source,
        "cost": social_cost(instance, reference),
        "relative_gap": relative_duality_gap(instance, reference),
    }

    flow = None
    if args.flow:
        flow = read_flow(args.flow, instance, profile)
        ratio = empirical_ratio(instance, flow, reference)
        entry: dict = {
            "path": args.flow,
            "cost": social_cost(instance, flow),
            "ratio": ratio.to_obj(),
        }
        if args.eps is not None:
            cert = verify_approx_nash(instance, flow, args.eps)
            entry["approx"] = {"eps": args.eps, **cert.to_obj()}
        if args.beta is not None and profile is not None:
            cert = verify_approx_nash(instance, flow, approx_factors(profile, args.beta))
            entry["approx_classes"] = {"beta": args.beta, **cert.to_obj()}
        if deviations is not None:
            cert = verify_deviated_nash(instance, flow, deviations, profile)
            entry["deviated"] = cert.to_obj()
        report["flow"] = entry
        if instance.graph is not None and len(instance.commodities) == 1:
            alt = compute_alternating_path(instance, flow, reference)
            alt_entry: dict = {
                "q": alt.q,
                "steps": [[rid, forward] for rid, forward in alt.steps],
            }
            if args.eps is not None:
                upper = stability_upper(args.eps, alt.q)
                alt_entry["stability_upper"] = upper.to_obj()
                if upper.infinite:
                    alt_entry["ratio_within_bound"] = True
                else:
                    alt_entry["ratio_within_bound"] = close_leq(
                        ratio.ratio, upper.as_float, rtol=tau_rel()
                    )
            report["alternating"] = alt_entry

    if args.grid is not None:
        if args.eps is None:
            raise InputError("--grid needs --eps for the search tolerance")
        worst_flow, worst = worst_approx_search(instance, args.eps, args.grid)
        report["search"] = {
            "grid": args.grid,
            "cost": social_cost(instance, worst_flow),
            "ratio": worst.to_obj(),
        }

    bounds_entry: dict = {}
    if instance.meta and "bound" in instance.meta:
        bounds_entry["family"] = instance.meta["bound"]
    if profile is not None and len(instance.commodities) == 1 and args.beta is not None:
        r = [d for d, _ in profile.classes[0]]
        g = [v for _, v in profile.classes[0]]
        bounds_entry["stability_discrete"] = sr_bound_discrete(args.beta, r, g).to_obj()
        bounds_entry["deviation_discrete"] = dr_bound_discrete(args.beta, r, g).to_obj()
    if bounds_entry:
        report["bounds"] = bounds_entry

    if args.format == "csv":
        text = _analyze_csv(report)
    else:
        text = dumps_canonical(report) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not isfinite(value):
            return "inf" if value > 0 else "-inf"
        return format_float(value)
    return str(value)


def _analyze_csv(report: dict) -> str:
    flow = report.get("flow") or {}
    ratio = flow.get("ratio") or {}
    bound = ratio.get("bound") or {}
    alt = report.get("alternating") or {}
    row = {
        "instance": report["instance"],
        "nash_cost": report["nash"]["cost"],
        "nash_gap": report["nash"]["relative_gap"],
        "flow_cost": flow.get("cost"),
        "ratio": ratio.get("ratio"),
        "bound": ("inf" if bound.get("infinite") else bound.get("value"))
        if bound
        else None,
        "slack": ratio.get("slack"),
        "q": alt.get("q"),
    }
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(row))
    writer.writerow([_cell(v) for v in row.values()])
    return buf.getvalue()


# -- sweep ---------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """Parameter grid over one family plus requested outputs."""

    family: str
    params: dict
    outputs: tuple[str, ...] = METRICS
    out: str | None = None

    @classmethod
    def from_obj(cls, obj: dict) -> "SweepSpec":
        if not isinstance(obj, dict):
            raise InputError("sweep spec must be a JSON object")
        unknown = set(obj) - {"family", "params", "outputs", "out"}
        if unknown:
            raise InputError(f"unknown sweep spec fields: {sorted(unknown)}")
        family = obj.get("family")
        if family not in FAMILIES:
            raise InputError(
                f"sweep family must be one of {', '.join(FAMILIES)}, got {family!r}"
            )
        params = obj.get("params")
        if not isinstance(params, dict) or not params:
            raise InputError("sweep spec needs a nonempty 'params' object")
        outputs = obj.get("outputs", list(METRICS))
        if not isinstance(outputs, list):
            raise InputError(f"sweep spec 'outputs' must be a list of metrics, got {outputs!r}")
        bad = [o for o in outputs if o not in METRICS]
        if bad:
            raise InputError(f"unknown outputs {bad}; choose from {list(METRICS)}")
        out = obj.get("out")
        if out is not None and not isinstance(out, str):
            raise InputError(f"sweep spec 'out' must be a path string, got {out!r}")
        return cls(family=family, params=params, outputs=tuple(outputs), out=out)

    def combos(self) -> tuple[tuple[str, ...], list[dict]]:
        """Sorted parameter keys and all value combinations, lexicographic."""
        keys = tuple(sorted(self.params))
        value_lists = []
        for key in keys:
            values = self.params[key]
            if isinstance(values, dict):
                values = _progression(key, values)
            elif not isinstance(values, list):
                values = [values]
            if not values:
                raise InputError(f"parameter {key} has no values")
            if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
                values = sorted(values)
            else:
                values = sorted(values, key=str)
            value_lists.append(values)
        if prod(map(len, value_lists)) > SWEEP_ROW_CAP:
            raise InputError(f"sweep has more than {SWEEP_ROW_CAP} rows")
        rows = [dict(zip(keys, combo)) for combo in product(*value_lists)]
        return keys, rows


def _progression(key: str, obj: dict) -> list:
    unknown = set(obj) - {"start", "stop", "step"}
    if unknown or not {"start", "stop", "step"} <= set(obj):
        raise InputError(
            f"parameter {key}: a range needs exactly start/stop/step, got {obj}"
        )
    start, stop, step = (obj[k] for k in ("start", "stop", "step"))
    if not all(type(v) is int for v in (start, stop, step)):
        start, stop, step = (_as_float(key, v) for v in (start, stop, step))
    if not all(abs(v) <= sys.float_info.max for v in (start, stop, step)):
        raise InputError(f"parameter {key}: range bounds must be finite, got {obj}")
    if step <= 0 or stop < start:
        raise InputError(f"parameter {key}: need step > 0 and stop >= start")
    limit = stop + 1e-12 * max(1.0, abs(stop))
    span = (limit - start) / step  # one less than the number of values, up to rounding
    if not span < SWEEP_ROW_CAP:
        raise InputError(f"parameter {key}: range has more than {SWEEP_ROW_CAP} values")
    values = (start + k * step for k in range(1, int(span) + 2))
    return [start] + [v for v in values if v <= limit]


def _measure(family: str, bundle: dict, outputs: tuple[str, ...]) -> dict:
    instance = bundle["instance"]
    x, z = bundle["x"], bundle["z"]
    result: dict = {"ratio": None, "bound": None, "gap": None, "q": None}
    if x is not None and z is not None:
        if "ratio" in outputs or "gap" in outputs:
            result["ratio"] = social_cost(instance, x) / social_cost(instance, z)
        bound = bundle["bound"]
        if bound is not None and ("bound" in outputs or "gap" in outputs):
            result["bound"] = float("inf") if bound.infinite else bound.value
        if (
            "gap" in outputs
            and result["ratio"] is not None
            and result["bound"] is not None
            and isfinite(result["bound"])
        ):
            result["gap"] = result["bound"] - result["ratio"]
        if "q" in outputs and instance.graph is not None and len(instance.commodities) == 1:
            result["q"] = compute_alternating_path(instance, x, z).q
    else:
        flow = compute_nash_flow(instance, bundle["profile"])
        if "ratio" in outputs:
            result["ratio"] = 1.0
        if "gap" in outputs:
            result["gap"] = relative_duality_gap(instance, flow)
        if "q" in outputs and instance.graph is not None and len(instance.commodities) == 1:
            result["q"] = compute_alternating_path(instance, flow, flow).q
    drop = [m for m in METRICS if m not in outputs]
    for m in drop:
        result[m] = None
    return result


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    spec = SweepSpec.from_obj(_load_json(args.spec, "sweep spec"))
    out = args.out or spec.out
    if not out:
        raise InputError("sweep needs an output path (--out or spec 'out')")
    keys, rows = spec.combos()

    # Preconditions are checked for every combination up front; a bad
    # combination aborts the sweep before any row executes.
    bundles = []
    for row in rows:
        try:
            bundles.append(build_family(spec.family, row))
        except InputError as exc:
            raise InputError(
                f"invalid parameter combination {row} for family {spec.family}: {exc}"
            ) from exc

    header = ["family", *keys, "ratio", "bound", "gap", "q", "status", "runtime_ms"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    errors = []
    for row, bundle in zip(rows, bundles):
        t0 = time.perf_counter()
        try:
            metrics = _measure(spec.family, bundle, spec.outputs)
            status = "ok"
        except WardropError as exc:
            metrics = {m: None for m in METRICS}
            status = f"error:{type(exc).__name__}"
            errors.append(exc)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        cells = [spec.family]
        cells += [_cell(row[k]) for k in keys]
        cells += [_cell(metrics[m]) for m in METRICS]
        cells.append(status)
        cells.append("" if args.no_timing else format_float(elapsed_ms))
        writer.writerow(cells)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())
    if errors and len(errors) == len(rows):
        return max(getattr(e, "exit_code", 3) for e in errors)
    return 0


# -- entry point ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wardrop",
        description="Equilibria, deviation models, and inefficiency bounds "
        "for nonatomic congestion games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance family")
    gen.add_argument("family", choices=FAMILIES)
    gen.add_argument("--m", type=int, help="ladder order (braess families)")
    gen.add_argument("--k", type=int, help="matroid rank")
    gen.add_argument("--eps", type=float, help="approximation tolerance")
    gen.add_argument("--tau", type=float, help="rise of the ladder latencies")
    gen.add_argument("--beta", type=float, help="deviation bound")
    gen.add_argument("--r", help="comma-separated class demands")
    gen.add_argument("--gamma", help="comma-separated class sensitivities")
    gen.add_argument("--j", type=int, help="1-based class moved to the rising arc")
    gen.add_argument("--eps-prime", dest="eps_prime", type=float,
                     help="offset of the rising arc / discretization width")
    gen.add_argument("--M", type=float, help="cost ratio of the matroid family")
    gen.add_argument("--seed", type=int, help="random seed (random-sp)")
    gen.add_argument("--depth", type=int, help="series-parallel nesting depth")
    gen.add_argument("--latency-family", dest="latency_family",
                     choices=("affine", "polynomial", "piecewise-linear",
                              "constant", "mixed"))
    gen.add_argument("--max-leaves", dest="max_leaves", type=int)
    gen.add_argument("--density", help="uniform:LO,HI | triangular:LO,PEAK,HI "
                                       "| points:X,Y;X,Y;...")
    gen.add_argument("--tail-mass", dest="tail_mass", type=float,
                     help="mass kept in the unbounded tail class")
    gen.add_argument("--which", choices=("sr", "dr"),
                     help="tight family built from the discretized density")
    gen.add_argument("--out", help="instance path (default FAMILY.json)")
    gen.set_defaults(func=cmd_gen)

    analyze = sub.add_parser("analyze", help="analyze an instance file")
    analyze.add_argument("--instance", required=True)
    analyze.add_argument("--flow", help="flow file to verify and compare")
    analyze.add_argument("--flow-ref", dest="flow_ref",
                         help="equilibrium flow file (skips solving)")
    analyze.add_argument("--eps", type=float, help="verify --flow as "
                         "eps-approximate; also sets the alternating-path bound")
    analyze.add_argument("--beta", type=float, help="class-resolved checks "
                         "with per-class factor beta*gamma")
    analyze.add_argument("--grid", type=float,
                         help="grid step for the worst-case search")
    analyze.add_argument("--out", help="report path (default stdout)")
    analyze.add_argument("--format", choices=("json", "csv"), default="json")
    analyze.set_defaults(func=cmd_analyze)

    sweep = sub.add_parser("sweep", help="run a parameter sweep to CSV")
    sweep.add_argument("--spec", required=True, help="sweep spec JSON path")
    sweep.add_argument("--out", help="CSV path (overrides spec 'out')")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility: rows run one at a time "
                       "and the value does not change the output (default 1)")
    sweep.add_argument("--no-timing", dest="no_timing", action="store_true",
                       help="leave runtime_ms empty for byte-identical output")
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        # the readers raise InputError, so what is left is an output path
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return InputError.exit_code
    except WardropError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
