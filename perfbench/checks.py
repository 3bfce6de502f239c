"""Independent output checks for the benchmark.

Nothing here calls a wardrop solver, verifier or latency function.  Latencies
and deviations are re-evaluated from their serialized form (``to_obj()`` or
the JSON files the CLI writes), loads are re-summed from strategy flows, and
the equilibrium condition, the closed forms and the Beckmann optimum are
recomputed from scratch.  Every function returns ``None`` when the output
holds and a one-line message when it does not.

The check tolerance is ten times the library's default relative tolerance
(1e-9): summing in another order moves the last digits, and a wrong answer
is off by far more than 1e-8.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

CHECK_RTOL = 1e-8
CHECK_ATOL = 1e-10
USED = 1e-12  # flow above this counts as using a strategy, as in the library
SCIPY_MAX_STRATEGIES = 100


# -- latency and deviation evaluation from serialized form -------------------


def lat_value(obj: dict, x: float) -> float:
    kind = obj["kind"]
    if kind == "constant":
        return float(obj["value"])
    if kind == "affine":
        return obj["offset"] + obj["slope"] * x
    if kind == "polynomial":
        return sum(c * x**i for i, c in enumerate(obj["coeffs"]))
    pts = obj["points"]
    i = bisect_right([p[0] for p in pts], x) - 1
    if i < 0:
        return float(pts[0][1])
    if i == len(pts) - 1:
        return pts[-1][1] + obj["final_slope"] * (x - pts[-1][0])
    (x0, y0), (x1, y1) = pts[i], pts[i + 1]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def lat_integral(obj: dict, x: float) -> float:
    kind = obj["kind"]
    if kind == "constant":
        return obj["value"] * x
    if kind == "affine":
        return obj["offset"] * x + 0.5 * obj["slope"] * x * x
    if kind == "polynomial":
        return sum(c * x ** (i + 1) / (i + 1) for i, c in enumerate(obj["coeffs"]))
    # trapezoids between breakpoints (exact for piecewise-linear)
    knots = [0.0] + [p[0] for p in obj["points"] if 0.0 < p[0] < x] + [x]
    return sum(
        0.5 * (lat_value(obj, a) + lat_value(obj, b)) * (b - a)
        for a, b in zip(knots, knots[1:])
    )


def strictly_increasing(obj: dict) -> bool:
    """True when loads at which the latency is equal must be equal."""
    kind = obj["kind"]
    if kind == "affine":
        return obj["slope"] > 0
    if kind == "polynomial":
        return any(c > 0 for c in obj["coeffs"][1:])
    if kind == "piecewise-linear":
        pts = obj["points"]
        return (
            pts[0][0] == 0.0
            and all(y1 > y0 for (_, y0), (_, y1) in zip(pts, pts[1:]))
            and obj["final_slope"] > 0
        )
    return False


def dev_value(obj: dict, x: float, latency: dict) -> float:
    kind = obj["kind"]
    if kind == "constant":
        return float(obj["value"])
    if kind == "scaled":
        return obj["factor"] * lat_value(latency, x)
    return lat_value(obj, x)


# -- a game rebuilt from serialized parts ------------------------------------


class Game:
    """Resources, strategy incidence and deviations of one instance."""

    def __init__(self, ids, latencies, commodities, deviations=None):
        self.ids = list(ids)
        self.latencies = list(latencies)
        index = {rid: k for k, rid in enumerate(self.ids)}
        self.demands = [float(d) for d, _ in commodities]
        self.strategies = [[tuple(s) for s in strats] for _, strats in commodities]
        self.incidence = []
        for strats in self.strategies:
            inc = np.zeros((len(strats), len(self.ids)))
            for p, strat in enumerate(strats):
                for rid in strat:
                    inc[p, index[rid]] = 1.0
            self.incidence.append(inc)
        # deviations: None, or {"beta", "edges": {rid: obj}}
        self.deviations = deviations

    @classmethod
    def from_instance(cls, instance, deviations=None):
        dev = None
        if deviations is not None:
            dev = deviations.to_obj()
        return cls(
            [r.id for r in instance.resources],
            [r.latency.to_obj() for r in instance.resources],
            [(c.demand, c.strategies) for c in instance.commodities],
            dev,
        )

    @classmethod
    def from_file_obj(cls, obj: dict):
        return cls(
            [r["id"] for r in obj["resources"]],
            [r["latency"] for r in obj["resources"]],
            [(c["demand"], c["strategies"]) for c in obj["commodities"]],
            obj.get("deviations"),
        )

    def loads(self, values) -> np.ndarray:
        total = np.zeros(len(self.ids))
        for inc, rows in zip(self.incidence, values):
            total += np.asarray(rows, dtype=float).sum(axis=0) @ inc
        return total

    def resource_latency(self, loads) -> np.ndarray:
        return np.array([lat_value(obj, x) for obj, x in zip(self.latencies, loads)])

    def resource_deviation(self, loads) -> np.ndarray:
        out = np.zeros(len(self.ids))
        if self.deviations is None:
            return out
        edges = self.deviations.get("edges", {})
        for k, rid in enumerate(self.ids):
            if rid in edges:
                out[k] = dev_value(edges[rid], loads[k], self.latencies[k])
        return out

    def cost(self, values) -> float:
        loads = self.loads(values)
        return float(loads @ self.resource_latency(loads))

    def potential(self, loads) -> float:
        return sum(lat_integral(obj, x) for obj, x in zip(self.latencies, loads))


def values_from_records(game: Game, records, n_classes) -> list:
    """Strategy flows from CLI flow records (matched by resource set)."""
    lookup = [{frozenset(s): p for p, s in enumerate(strats)} for strats in game.strategies]
    values = [
        np.zeros((n_classes[i], len(strats))) for i, strats in enumerate(game.strategies)
    ]
    for rec in records:
        i = rec["commodity"]
        values[i][rec["class"], lookup[i][frozenset(rec["path"])]] += rec["value"]
    return values


def close(a: float, b: float, rtol: float = CHECK_RTOL) -> bool:
    return abs(a - b) <= CHECK_ATOL + rtol * max(abs(a), abs(b))


# -- checks ------------------------------------------------------------------


def check_condition(game: Game, values, eps=None, gammas=None, loads=None) -> str | None:
    """Per class j of commodity i: every used strategy P satisfies
    l_P + g_ij d_P <= (1 + e_ij) * min_Q (l_Q + g_ij d_Q).

    ``values[i]`` is a (classes x strategies) array; ``eps[i]`` and
    ``gammas[i]`` give per-class factors (zero when omitted).
    """
    own = game.loads(values)
    if loads is not None:
        loads = np.asarray(loads, dtype=float)
        bad = np.abs(loads - own) > CHECK_ATOL + CHECK_RTOL * np.maximum(1.0, np.abs(own))
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            return f"cached load of {game.ids[k]} is {loads[k]}, flows sum to {own[k]}"
    res_lat = game.resource_latency(own)
    res_dev = game.resource_deviation(own)
    for i, inc in enumerate(game.incidence):
        rows = np.asarray(values[i], dtype=float)
        if rows.min(initial=0.0) < -USED:
            return f"commodity {i} has a negative strategy flow"
        demand = rows.sum()
        if not close(demand, game.demands[i], 1e-9):
            return f"commodity {i} routes {demand}, demand is {game.demands[i]}"
        lat = inc @ res_lat
        dev = inc @ res_dev
        n = rows.shape[0]
        g = np.zeros(n) if gammas is None else np.asarray(gammas[i], dtype=float)
        e = np.zeros(n) if eps is None else np.asarray(eps[i], dtype=float)
        costs = lat[None, :] + g[:, None] * dev[None, :]
        best = costs.min(axis=1)
        worst = np.where(rows > USED, costs, -np.inf).max(axis=1)
        rhs = (1.0 + e) * best
        bad = worst > rhs + CHECK_ATOL + CHECK_RTOL * np.abs(rhs)
        if bad.any():
            j = int(np.flatnonzero(bad)[0])
            return (
                f"commodity {i} class {j}: a used strategy costs {worst[j]}, "
                f"bound is {rhs[j]}"
            )
    return None


def check_ratio(game: Game, tested, reference, expected: float, what: str) -> str | None:
    ratio = game.cost(tested) / game.cost(reference)
    if not close(ratio, expected):
        return f"{what}: cost ratio {ratio}, closed form {expected}"
    return None


def check_alternating(game_graph: dict, steps, q: int) -> str | None:
    """Steps form a source-sink walk whose backward arcs number q."""
    arcs = {rid: (tail, head) for rid, tail, head in game_graph["arcs"]}
    at = game_graph["source"]
    for rid, forward in steps:
        tail, head = arcs[rid]
        if not forward:
            tail, head = head, tail
        if tail != at:
            return f"alternating path breaks at arc {rid}"
        at = head
    if at != game_graph["sink"]:
        return "alternating path does not end at the sink"
    backward = sum(1 for _, forward in steps if not forward)
    if backward != q:
        return f"alternating path has {backward} backward arcs, reports q={q}"
    return None


def check_beckmann(game: Game, values) -> str | None:
    """Cross-check a single-commodity equilibrium against scipy's minimum of
    the Beckmann potential over strategy flows.

    The library's potential may not exceed scipy's optimum, and loads must
    agree on resources whose latency is strictly increasing (where the
    equilibrium load is unique).
    """
    from scipy.optimize import minimize

    if len(game.incidence) != 1 or game.incidence[0].shape[0] > SCIPY_MAX_STRATEGIES:
        return None
    inc = game.incidence[0]
    d = game.demands[0]
    n = inc.shape[0]

    def objective(f):
        loads = f @ inc
        return game.potential(loads), inc @ game.resource_latency(loads)

    result = minimize(
        objective,
        np.full(n, d / n),
        jac=True,
        method="SLSQP",
        bounds=[(0.0, d)] * n,
        constraints=[{"type": "eq", "fun": lambda f: f.sum() - d, "jac": lambda f: np.ones(n)}],
        options={"ftol": 1e-15, "maxiter": 2000},
    )
    ref_loads = np.clip(result.x, 0.0, None) @ inc
    own_loads = game.loads(values)
    phi_own = game.potential(own_loads)
    phi_ref = game.potential(ref_loads)
    if phi_own > phi_ref + 1e-7 * max(1.0, abs(phi_ref)):
        return f"Beckmann potential {phi_own} exceeds scipy's optimum {phi_ref}"
    for k, obj in enumerate(game.latencies):
        if strictly_increasing(obj) and abs(own_loads[k] - ref_loads[k]) > 1e-4 * max(1.0, d):
            return (
                f"load of {game.ids[k]} is {own_loads[k]}, scipy's Beckmann "
                f"minimizer gives {ref_loads[k]}"
            )
    return None
