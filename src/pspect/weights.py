"""Radial weight coefficients m(r) on [0, 1].

A weight is a continuous piecewise polynomial: breakpoints
0 = b_0 < ... < b_n = 1 and, on each piece, coefficients in ascending
powers of the local variable (r - b_i).  Sign-changing weights are the
point of the package; admissibility (a set of positive measure) is an
operation-level precondition, checked on demand, so that negated weights
can be formed freely for the mirror reductions.

The sign partition, computed once from the polynomial roots on each
piece, gives exact interval lists for {m > 0} and {m < 0}.  It alone
decides admissibility (``in_M``) and whether the negative sequence
exists (a non-empty ``negative_intervals``).
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

_CONTINUITY_TOL = 1e-12


def _poly_eval(coeffs, t):
    """Horner evaluation, ascending coefficients, scalar t."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


@dataclass(frozen=True)
class Weight:
    """Continuous piecewise-polynomial coefficient on [0, 1]."""

    breakpoints: tuple
    coeffs: tuple  # one ascending-coefficient tuple per piece, local variable

    positive_intervals: tuple = field(repr=False, default=())
    negative_intervals: tuple = field(repr=False, default=())

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        cs = tuple(tuple(float(c) for c in piece) for piece in self.coeffs)
        if len(bp) < 2 or len(cs) != len(bp) - 1:
            raise ValueError("need n+1 breakpoints for n pieces")
        if not all(map(math.isfinite, bp + sum(cs, ()))):
            raise ValueError("breakpoints and coefficients must be finite")
        if abs(bp[0]) > 1e-15 or abs(bp[-1] - 1.0) > 1e-15:
            raise ValueError("breakpoints must span [0, 1]")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(len(piece) == 0 for piece in cs):
            raise ValueError("every piece needs at least one coefficient")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coeffs", cs)
        scale = max(1.0, max(abs(c) for piece in cs for c in piece))
        for i in range(len(cs) - 1):
            left = _poly_eval(cs[i], bp[i + 1] - bp[i])
            right = cs[i + 1][0]
            if abs(left - right) > _CONTINUITY_TOL * scale:
                raise ValueError(
                    f"discontinuous at breakpoint r={bp[i + 1]!r}: "
                    f"{left!r} vs {right!r}"
                )
        pos, neg = _sign_partition(bp, cs)
        object.__setattr__(self, "positive_intervals", pos)
        object.__setattr__(self, "negative_intervals", neg)

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c) -> "Weight":
        return cls((0.0, 1.0), ((float(c),),))

    @classmethod
    def poly(cls, coeffs) -> "Weight":
        """Single global polynomial c0 + c1 r + c2 r^2 + ..."""
        return cls((0.0, 1.0), (tuple(float(c) for c in coeffs),))

    @classmethod
    def from_function(cls, fn, n_pieces: int = 64, degree: int = 8) -> "Weight":
        """Piecewise Chebyshev-Lobatto interpolant of a smooth function.

        Lobatto nodes include the piece endpoints, so adjacent pieces agree
        at the breakpoints to rounding and the continuity check passes.
        """
        bp = np.linspace(0.0, 1.0, n_pieces + 1)
        pieces = []
        k = np.arange(degree + 1)
        lob = 0.5 * (1.0 - np.cos(math.pi * k / degree))  # [0, 1], ends included
        for i in range(n_pieces):
            a, b = bp[i], bp[i + 1]
            xs = a + (b - a) * lob
            ys = np.array([fn(x) for x in xs], dtype=float)
            c = np.polynomial.polynomial.polyfit(xs - a, ys, degree)
            c[0] = ys[0]  # pin the endpoint value exactly
            pieces.append(tuple(c))
        return cls(tuple(bp), tuple(pieces))

    @classmethod
    def from_spec(cls, spec: dict) -> "Weight":
        """Build from the JSON config form (see cli module)."""
        if not isinstance(spec, dict):
            raise ValueError("weight spec must be an object")
        if "expr" in spec:
            if spec.get("expr") != "poly":
                raise ValueError(f"unknown weight expr {spec.get('expr')!r}")
            extra = set(spec) - {"expr", "coeffs"}
            if extra:
                raise ValueError(f"unknown weight keys {sorted(extra)}")
            return cls.poly(spec["coeffs"])
        extra = set(spec) - {"breakpoints", "coeffs"}
        if extra:
            raise ValueError(f"unknown weight keys {sorted(extra)}")
        if "breakpoints" not in spec or "coeffs" not in spec:
            raise ValueError("weight spec needs breakpoints+coeffs or expr form")
        return cls(tuple(spec["breakpoints"]), tuple(tuple(c) for c in spec["coeffs"]))

    # -- evaluation ---------------------------------------------------

    def __call__(self, r):
        r_arr = np.asarray(r, dtype=float)
        if r_arr.ndim == 0:
            return self.eval_scalar(float(r_arr))
        idx = np.clip(
            np.searchsorted(self.breakpoints, r_arr, side="right") - 1,
            0,
            len(self.coeffs) - 1,
        )
        out = np.zeros_like(r_arr)
        for i, piece in enumerate(self.coeffs):
            mask = idx == i
            if mask.any():
                t = r_arr[mask] - self.breakpoints[i]
                acc = np.zeros_like(t)
                for c in reversed(piece):
                    acc = acc * t + c
                out[mask] = acc
        return out

    def eval_scalar(self, r: float) -> float:
        i = bisect_right(self.breakpoints, r) - 1
        if i < 0:
            i = 0
        elif i >= len(self.coeffs):
            i = len(self.coeffs) - 1
        return _poly_eval(self.coeffs[i], r - self.breakpoints[i])

    def scalar_fn(self):
        """Fast scalar evaluator, specialized for the common low-degree cases."""
        if len(self.coeffs) == 1:
            piece = self.coeffs[0]
            if len(piece) == 1:
                c0 = piece[0]
                return lambda r: c0
            if len(piece) == 2:
                c0, c1 = piece
                return lambda r: c0 + c1 * r
            if len(piece) == 3:
                c0, c1, c2 = piece
                return lambda r: c0 + r * (c1 + r * c2)
            if len(piece) == 4:
                c0, c1, c2, c3 = piece
                return lambda r: c0 + r * (c1 + r * (c2 + r * c3))
            return lambda r: _poly_eval(piece, r)
        return self.eval_scalar

    @cached_property
    def flat(self):
        """(breakpoints, offsets, coefficients) as contiguous arrays, for
        the compiled shot kernel; piece i has the coefficients
        ``coefficients[offsets[i]:offsets[i + 1]]``."""
        return (
            np.asarray(self.breakpoints, dtype=float),
            np.cumsum([0] + [len(piece) for piece in self.coeffs], dtype=np.int64),
            np.asarray([c for piece in self.coeffs for c in piece], dtype=float),
        )

    @cached_property
    def flat_addresses(self):
        """The data addresses of the three ``flat`` arrays, which the weight
        keeps alive: the compiled kernel reads the weight through them."""
        return tuple(a.__array_interface__["data"][0] for a in self.flat)

    # -- derived ------------------------------------------------------

    def __sub__(self, other: "Weight") -> "Weight":
        """m - other on the union of both breakpoint sets, every piece of
        either re-expanded about the left end of each new piece it covers."""
        bp = sorted(set(self.breakpoints) | set(other.breakpoints))
        pieces = []
        for a in bp[:-1]:
            c1, c2 = self._expanded_at(a), other._expanded_at(a)
            n = max(len(c1), len(c2))
            c1, c2 = c1 + (0.0,) * (n - len(c1)), c2 + (0.0,) * (n - len(c2))
            pieces.append(tuple(x - y for x, y in zip(c1, c2)))
        return Weight(tuple(bp), tuple(pieces))

    def _expanded_at(self, a: float) -> tuple:
        """Ascending coefficients in (r - a) of the piece that holds a."""
        i = min(max(bisect_right(self.breakpoints, a) - 1, 0), len(self.coeffs) - 1)
        cs, d = self.coeffs[i], a - self.breakpoints[i]
        return tuple(
            math.fsum(math.comb(j, k) * cs[j] * d ** (j - k) for j in range(k, len(cs)))
            for k in range(len(cs))
        )

    def negated(self) -> "Weight":
        return Weight(
            self.breakpoints,
            tuple(tuple(-c for c in piece) for piece in self.coeffs),
        )

    def scaled(self, factor: float) -> "Weight":
        return Weight(
            self.breakpoints,
            tuple(tuple(factor * c for c in piece) for piece in self.coeffs),
        )

    def shifted(self, offset: float) -> "Weight":
        return Weight(
            self.breakpoints,
            tuple(
                (piece[0] + offset,) + piece[1:] for piece in self.coeffs
            ),
        )

    def positive_measure(self) -> float:
        return sum(b - a for a, b in self.positive_intervals)

    def in_M(self) -> bool:
        """Admissibility: meas{r : m(r) > 0} > 0, read from the sign partition."""
        return bool(self.positive_intervals)

    def min_on(self, a: float, b: float) -> float:
        """Minimum of m over 4096 samples of [a, b]."""
        rs = np.linspace(a, b, 4096)
        return float(np.min(self(rs)))

    def fingerprint(self) -> str:
        hasher = hashlib.sha256()
        hasher.update(np.asarray(self.breakpoints, dtype=float).tobytes())
        for piece in self.coeffs:
            hasher.update(np.asarray(piece, dtype=float).tobytes())
        return hasher.hexdigest()[:12]


def _sign_partition(bp, cs, eps: float = 1e-14):
    """Exact-ish {m>0}/{m<0} interval lists from per-piece polynomial roots."""
    scale = max(abs(c) for piece in cs for c in piece)  # c * m keeps the signs of m
    cuts = [bp[0]]
    for i, piece in enumerate(cs):
        width = bp[i + 1] - bp[i]
        arr = np.asarray(piece, dtype=float)
        if np.any(np.abs(arr[1:]) > 0):
            roots = np.polynomial.polynomial.polyroots(arr)
            for z in roots:
                if abs(z.imag) < 1e-12 and -1e-12 < z.real < width + 1e-12:
                    cuts.append(bp[i] + min(max(z.real, 0.0), width))
        cuts.append(bp[i + 1])
    cuts = sorted(set(cuts))
    pos, neg = [], []
    for a, b in zip(cuts, cuts[1:]):
        if b - a < 1e-15:
            continue
        mid = 0.5 * (a + b)
        i = min(max(bisect_right(bp, mid) - 1, 0), len(cs) - 1)
        v = _poly_eval(cs[i], mid - bp[i])
        if v > eps * scale:
            pos.append((a, b))
        elif v < -eps * scale:
            neg.append((a, b))
    return _merge(pos), _merge(neg)


def _merge(intervals):
    merged = []
    for a, b in intervals:
        if merged and a - merged[-1][1] < 1e-12:
            merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    return tuple(merged)
