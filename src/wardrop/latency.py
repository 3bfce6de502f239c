"""Per-resource latency functions and per-resource deviation functions.

Latency functions map a nonnegative load to a nonnegative latency and are
required to be non-decreasing and continuous.  Four shapes are supported:

* ``constant``           -- l(y) = c
* ``affine``             -- l(y) = a + b*y
* ``polynomial``         -- l(y) = sum_i coeffs[i] * y**i, coeffs >= 0
* ``piecewise-linear``   -- breakpoints (load, value) joined by segments,
                            extended left of the first breakpoint as a
                            constant and right of the last breakpoint with
                            ``final_slope``.

``LatencyBank`` compiles a list of latency functions once and evaluates all
of them on a numpy load vector, with the same values as the scalar calls.

Deviation functions describe the extra perceived cost an agent attaches to
a resource.  They must be nonnegative but need not be monotone; membership
in the bounded deviation set (0 <= delta <= beta * latency) is checked at
concrete loads by the verifiers, not here.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import isfinite
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, InvariantError

_KINDS = ("constant", "affine", "polynomial", "piecewise-linear")


def _check_number(x: float, what: str) -> float:
    x = float(x)
    if not isfinite(x):
        raise InputError(f"{what} must be finite, got {x}")
    return x


@dataclass(frozen=True)
class LatencyFn:
    """Immutable latency function; build through the class methods."""

    kind: str
    coeffs: tuple[float, ...] = ()
    points: tuple[tuple[float, float], ...] = ()
    final_slope: float = 0.0

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c: float) -> "LatencyFn":
        return cls("constant", coeffs=(_check_number(c, "constant latency"),))

    @classmethod
    def affine(cls, a: float, b: float) -> "LatencyFn":
        return cls("affine", coeffs=(_check_number(a, "offset"), _check_number(b, "slope")))

    @classmethod
    def polynomial(cls, coeffs: Iterable[float]) -> "LatencyFn":
        cs = tuple(_check_number(c, "coefficient") for c in coeffs)
        if not cs:
            raise InputError("polynomial latency needs at least one coefficient")
        return cls("polynomial", coeffs=cs)

    @classmethod
    def piecewise_linear(
        cls, points: Iterable[tuple[float, float]], final_slope: float = 0.0
    ) -> "LatencyFn":
        pts = tuple(
            (_check_number(x, "breakpoint load"), _check_number(y, "breakpoint value"))
            for x, y in points
        )
        if not pts:
            raise InputError("piecewise-linear latency needs at least one breakpoint")
        return cls(
            "piecewise-linear",
            points=pts,
            final_slope=_check_number(final_slope, "final slope"),
        )

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InputError(f"unknown latency kind {self.kind!r}")

    # -- invariants ---------------------------------------------------

    def validate(self) -> None:
        """Raise InvariantError unless nonnegative and non-decreasing on [0, inf)."""
        if self.kind == "constant":
            if self.coeffs[0] < 0:
                raise InvariantError(f"constant latency {self.coeffs[0]} is negative")
        elif self.kind == "affine":
            a, b = self.coeffs
            if a < 0 or b < 0:
                raise InvariantError(f"affine latency needs a,b >= 0, got ({a}, {b})")
        elif self.kind == "polynomial":
            if any(c < 0 for c in self.coeffs):
                raise InvariantError(f"polynomial latency has a negative coefficient: {self.coeffs}")
        else:
            xs = [x for x, _ in self.points]
            ys = [y for _, y in self.points]
            if xs[0] < 0:
                raise InvariantError(f"first breakpoint load {xs[0]} is negative")
            if any(x1 >= x2 for x1, x2 in zip(xs, xs[1:])):
                raise InvariantError("breakpoint loads must be strictly increasing")
            if ys[0] < 0:
                raise InvariantError(f"breakpoint value {ys[0]} is negative")
            if any(y1 > y2 for y1, y2 in zip(ys, ys[1:])):
                raise InvariantError("breakpoint values must be non-decreasing")
            if self.final_slope < 0:
                raise InvariantError(f"final slope {self.final_slope} is negative")

    # -- evaluation ---------------------------------------------------

    def __call__(self, x: float) -> float:
        if self.kind == "constant":
            return self.coeffs[0]
        if self.kind == "affine":
            a, b = self.coeffs
            return a + b * x
        if self.kind == "polynomial":
            acc = 0.0
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        return self._segment(x)[0]

    def value_slope(self, x: float) -> tuple[float, float]:
        """(l(x), l'(x)).  The value equals ``self(x)`` bit for bit; on a
        piecewise-linear latency the slope is that of the segment the value
        is read from, so at a breakpoint it is the slope to its right."""
        if self.kind == "constant":
            return self.coeffs[0], 0.0
        if self.kind == "affine":
            a, b = self.coeffs
            return a + b * x, b
        if self.kind == "polynomial":
            acc = der = 0.0
            for c in reversed(self.coeffs):
                der = der * x + acc
                acc = acc * x + c
            return acc, der
        return self._segment(x)

    def _segment(self, x: float) -> tuple[float, float]:
        pts = self.points
        i = bisect_right(pts, x, key=itemgetter(0)) - 1
        if i < 0:
            return pts[0][1], 0.0
        if i == len(pts) - 1:
            x0, y0 = pts[-1]
            return y0 + self.final_slope * (x - x0), self.final_slope
        x0, y0 = pts[i]
        x1, y1 = pts[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0), (y1 - y0) / (x1 - x0)

    def integral(self, x: float) -> float:
        """Integral of the latency from load 0 to load x (x >= 0)."""
        if x < 0:
            raise InputError(f"integral requires a nonnegative load, got {x}")
        if self.kind == "constant":
            return self.coeffs[0] * x
        if self.kind == "affine":
            a, b = self.coeffs
            return a * x + 0.5 * b * x * x
        if self.kind == "polynomial":
            acc = 0.0
            for i in reversed(range(len(self.coeffs))):
                acc = acc * x + self.coeffs[i] / (i + 1)
            return acc * x
        return self._pwl_integral(x)

    def _pwl_integral(self, x: float) -> float:
        pts = self.points
        x0, y0 = pts[0]
        if x <= x0:
            return y0 * x
        total = y0 * x0
        prev_x, prev_y = x0, y0
        for bx, by in pts[1:]:
            if x < bx:
                y_at = prev_y + (by - prev_y) * (x - prev_x) / (bx - prev_x)
                return total + 0.5 * (prev_y + y_at) * (x - prev_x)
            total += 0.5 * (prev_y + by) * (bx - prev_x)
            prev_x, prev_y = bx, by
        y_end = prev_y + self.final_slope * (x - prev_x)
        return total + 0.5 * (prev_y + y_end) * (x - prev_x)

    # -- serialization ------------------------------------------------

    def to_obj(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "value": self.coeffs[0]}
        if self.kind == "affine":
            return {"kind": "affine", "offset": self.coeffs[0], "slope": self.coeffs[1]}
        if self.kind == "polynomial":
            return {"kind": "polynomial", "coeffs": list(self.coeffs)}
        return {
            "kind": "piecewise-linear",
            "points": [[x, y] for x, y in self.points],
            "final_slope": self.final_slope,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "LatencyFn":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise InputError(f"latency object must be a dict with a 'kind', got {obj!r}")
        kind = obj["kind"]
        try:
            if kind == "constant":
                return cls.constant(obj["value"])
            if kind == "affine":
                return cls.affine(obj["offset"], obj["slope"])
            if kind == "polynomial":
                return cls.polynomial(obj["coeffs"])
            if kind == "piecewise-linear":
                return cls.piecewise_linear(
                    [(p[0], p[1]) for p in obj["points"]], obj.get("final_slope", 0.0)
                )
        except KeyError as exc:
            raise InputError(f"latency object {obj!r} is missing field {exc}") from exc
        raise InputError(f"unknown latency kind {kind!r}")


class LatencyBank:
    """The latencies of a resource list, compiled for evaluation all at once.

    Constant, affine and polynomial latencies become columns of one Horner
    coefficient matrix, zero-padded at the high-order end.  Piecewise-linear
    latencies share one segment table whose rows read y0 + dy*(x - x0)/dx:
    a flat row (dy = 0, dx = 1) below the first breakpoint, one row per
    segment, and a final-slope row (dx = 1) past the last breakpoint.  Every
    value is then computed by the same operations as ``LatencyFn.__call__``
    and equals it bit for bit (up to the sign of a zero latency built from a
    -0.0 coefficient).
    """

    def __init__(self, fns: Sequence[LatencyFn]):
        smooth = [k for k, fn in enumerate(fns) if fn.kind != "piecewise-linear"]
        pwl = [k for k, fn in enumerate(fns) if fn.kind == "piecewise-linear"]
        self._smooth = np.array(smooth, dtype=np.intp)
        self._pwl = np.array(pwl, dtype=np.intp)

        degree = max((len(fns[k].coeffs) for k in smooth), default=0)
        coeffs = np.zeros((degree, len(smooth)))
        for col, k in enumerate(smooth):
            cs = fns[k].coeffs
            coeffs[degree - len(cs):, col] = cs[::-1]
        self._horner = tuple(coeffs)  # highest order first

        width = max((len(fns[k].points) for k in pwl), default=0)
        self._breaks = np.full((len(pwl), width), np.inf)
        first: list[int] = []
        rows: list[tuple[float, float, float, float]] = []  # (x0, y0, dy, dx)
        for r, k in enumerate(pwl):
            fn = fns[k]
            pts = fn.points
            self._breaks[r, : len(pts)] = [x for x, _ in pts]
            first.append(len(rows))
            rows.append((pts[0][0], pts[0][1], 0.0, 1.0))
            rows.extend((xa, ya, yb - ya, xb - xa) for (xa, ya), (xb, yb) in zip(pts, pts[1:]))
            rows.append((pts[-1][0], pts[-1][1], fn.final_slope, 1.0))
        self._first = np.array(first, dtype=np.intp)
        self._table = np.array(rows).reshape(-1, 4).T.copy()

    def __call__(self, loads: np.ndarray) -> np.ndarray:
        """Latency of every resource at the given per-resource loads."""
        out = np.empty(len(loads))
        if self._smooth.size:
            x = loads[self._smooth]
            acc = np.zeros(x.size)
            for row in self._horner:
                acc *= x
                acc += row
            out[self._smooth] = acc
        if self._pwl.size:
            x = loads[self._pwl]
            # bisect_right over each breakpoint row, padded with +inf
            seg = self._first + (self._breaks <= x[:, None]).sum(axis=1)
            x0, y0, dy, dx = self._table[:, seg]
            out[self._pwl] = y0 + dy * (x - x0) / dx
        return out


@dataclass(frozen=True)
class DeviationFn:
    """Per-resource deviation offset; nonnegative but not necessarily monotone.

    Kinds:
      * ``constant``  -- delta(y) = c
      * ``scaled``    -- delta(y) = factor * latency(y)
      * ``piecewise-linear`` -- same shape as LatencyFn but monotonicity is
        not required.
    """

    kind: str
    value: float = 0.0
    factor: float = 0.0
    fn: LatencyFn | None = field(default=None)

    @classmethod
    def zero(cls) -> "DeviationFn":
        return cls("constant", value=0.0)

    @classmethod
    def constant(cls, c: float) -> "DeviationFn":
        c = _check_number(c, "deviation constant")
        if c < 0:
            raise InputError(f"deviation constant must be >= 0, got {c}")
        return cls("constant", value=c)

    @classmethod
    def scaled(cls, factor: float) -> "DeviationFn":
        factor = _check_number(factor, "deviation factor")
        if factor < 0:
            raise InputError(f"deviation factor must be >= 0, got {factor}")
        return cls("scaled", factor=factor)

    @classmethod
    def piecewise_linear(
        cls, points: Iterable[tuple[float, float]], final_slope: float = 0.0
    ) -> "DeviationFn":
        fn = LatencyFn.piecewise_linear(points, final_slope)
        if any(y < 0 for _, y in fn.points):
            raise InputError("deviation values must be >= 0")
        return cls("piecewise-linear", fn=fn)

    def __call__(self, load: float, latency: LatencyFn) -> float:
        if self.kind == "constant":
            return self.value
        if self.kind == "scaled":
            return self.factor * latency(load)
        assert self.fn is not None
        return self.fn(load)

    def to_obj(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "value": self.value}
        if self.kind == "scaled":
            return {"kind": "scaled", "factor": self.factor}
        assert self.fn is not None
        obj = self.fn.to_obj()
        return obj

    @classmethod
    def from_obj(cls, obj: dict) -> "DeviationFn":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise InputError(f"deviation object must be a dict with a 'kind', got {obj!r}")
        kind = obj["kind"]
        try:
            if kind == "constant":
                return cls.constant(obj["value"])
            if kind == "scaled":
                return cls.scaled(obj["factor"])
            if kind == "piecewise-linear":
                return cls.piecewise_linear(
                    [(p[0], p[1]) for p in obj["points"]], obj.get("final_slope", 0.0)
                )
        except KeyError as exc:
            raise InputError(f"deviation object {obj!r} is missing field {exc}") from exc
        raise InputError(f"unknown deviation kind {kind!r}")
