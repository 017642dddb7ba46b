"""Exponential sums with positive integer coefficients.

Builds f(p) = sum_j c_j * exp(beta_j * p) from a real vector (beta_j the
logs of the non-zero coordinate magnitudes, c_j their repetition counts),
evaluates it without overflow for |beta_j * Re p| <= 700, counts and
isolates its complex zeros by contour integration of f'/f over rectangle
boundaries, and recovers the a * exp(beta * p) ratio between two sums.

Every contour integral here is a winding-number computation: the true
value is an integer (or a multiplicity-weighted zero centroid), which is
what lets the quadrature run with an aggressive acceptance test.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    BoundaryProximityError,
    InvalidInputError,
    QuadratureError,
    SingularEvaluationError,
)
from .vectors import _MAX_STACK_ELEMENTS, RealVector

# Exponents within this (absolute) distance are one term of from_vector.
_MERGE_TOL = 1e-12
# A converged winding is accepted within this distance of an integer.
_QUAD_TOL = 1e-3
# Summed error estimate (in winding units) below which a winding is converged.
_WINDING_ERROR_TOL = 1e-4
# Relative |f| on a contour below which the contour is deemed inadmissible.
_BOUNDARY_REL_MIN = 1e-8
_INFLATION_FACTOR = 1.0 + 2.0**-5
# An outer window inflates at most this many times before its count must hold.
_MAX_INFLATIONS = 8
# One count evaluates at most this many times its base panels, summed over rounds.
_PANEL_BUDGET = 128
# A base panel is bisected at most this many times.
_MAX_BISECTIONS = 16
# A box no wider than this is not split: its zeros must be one multiple zero.
_CLUSTER_DIAMETER = 1e-6
# A box of 2 to this many zeros is solved from its power sums, not split.
_MOMENT_ZEROS = 4
# A box is cut at these fractions of its longer side, in this order, until
# both halves count.  The first is off the midline: in a symmetric window
# the zeros of sums like 1 + 2^p all lie on it.
_CUT_FRACTIONS = (0.45, 0.55, 0.35)
# Newton accepts a zero once |f| <= this fraction of the local term scale.
_NEWTON_REL_TARGET = 1e-12
_MAX_NEWTON_ITERS = 60
# Points one kernel call may take; a sum of many terms takes fewer, so that
# a call holds at most _MAX_STACK_ELEMENTS term-points (``_chunked_parts``).
_MAX_CALL_POINTS = 4096
# Two zeros match when their multiplicities agree and they lie this close.
_MATCH_TOL = 1e-6


def _mirrored(half: tuple[float, ...], sign: float = 1.0) -> np.ndarray:
    """A symmetric rule's 15 values from the left half and the center (last)."""
    h = np.array(half)
    return np.concatenate((sign * h[:-1], h[-1:], h[-2::-1]))


# 15-point Kronrod rule on [-1, 1] and the 7-point Gauss rule on its
# odd-indexed nodes (QUADPACK qk15); |K - G| estimates the error of K.
_KRONROD_NODES = _mirrored(
    (
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144845693013,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.0,
    ),
    sign=-1.0,
)
_KRONROD_WEIGHTS = _mirrored(
    (
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    )
)
_GAUSS_WEIGHTS = _mirrored(
    (
        0.0,
        0.129484966168869693270611432679082,
        0.0,
        0.279705391489276667901467771423780,
        0.0,
        0.381830050505118944950369775488975,
        0.0,
        0.417959183673469387755102040816327,
    )
)


# |K - G| of a panel is its integral under these weights.
_ERROR_WEIGHTS = _KRONROD_WEIGHTS - _GAUSS_WEIGHTS
# A panel's K, K - G and first moment about its midpoint, per unit of its
# half-length (and its square), are its nodes' values times these columns.
_PANEL_RULES = np.column_stack(
    (_KRONROD_WEIGHTS, _ERROR_WEIGHTS, _KRONROD_WEIGHTS * _KRONROD_NODES)
).astype(complex)


def _read_only(values: list) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ExpPoly:
    """f(p) = sum of multiplicity * exp(exponent * p), exponents strictly increasing."""

    terms: tuple[tuple[float, int], ...]

    def __post_init__(self) -> None:
        terms = tuple((float(b), int(m)) for b, m in self.terms)
        if not terms:
            raise InvalidInputError("exponential sum needs at least one term")
        for b, m in terms:
            if not math.isfinite(b):
                raise InvalidInputError("exponents must be finite")
            if m < 1:
                raise InvalidInputError("term multiplicities must be positive integers")
        if any(b1 >= b2 for (b1, _), (b2, _) in zip(terms, terms[1:])):
            raise InvalidInputError("exponents must be strictly increasing")
        object.__setattr__(self, "terms", terms)

    @cached_property
    def exponents(self) -> np.ndarray:
        return _read_only([b for b, _ in self.terms])

    @cached_property
    def multiplicities(self) -> np.ndarray:
        return _read_only([m for _, m in self.terms])

    @cached_property
    def degree(self) -> int:
        """Total coefficient mass; equals the source vector's non-zero count."""
        return sum(m for _, m in self.terms)


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned search window in the complex plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self) -> None:
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise InvalidInputError("rectangle must have positive width and height")

    @property
    def width(self) -> float:
        return self.re_max - self.re_min

    @property
    def height(self) -> float:
        return self.im_max - self.im_min

    @property
    def diameter(self) -> float:
        return math.hypot(self.width, self.height)

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.re_min + self.re_max), 0.5 * (self.im_min + self.im_max))

    @property
    def corners(self) -> tuple[complex, complex, complex, complex]:
        """Counterclockwise from the bottom-left corner."""
        return (
            complex(self.re_min, self.im_min),
            complex(self.re_max, self.im_min),
            complex(self.re_max, self.im_max),
            complex(self.re_min, self.im_max),
        )

    def contains(self, z: complex) -> bool:
        return self.re_min <= z.real <= self.re_max and self.im_min <= z.imag <= self.im_max

    def inflate(self, factor: float) -> "Rectangle":
        """Scale width and height by ``factor`` about the center."""
        c = self.center
        hw = 0.5 * self.width * factor
        hh = 0.5 * self.height * factor
        return Rectangle(c.real - hw, c.real + hw, c.imag - hh, c.imag + hh)

    def split(self, fraction: float) -> tuple["Rectangle", "Rectangle"]:
        """Cut across the longer side (the width on a tie) at ``fraction`` of
        it from its low end: into left and right, or bottom and top."""
        r0, r1, i0, i1 = self.re_min, self.re_max, self.im_min, self.im_max
        if self.width >= self.height:
            at = r0 + fraction * (r1 - r0)
            return Rectangle(r0, at, i0, i1), Rectangle(at, r1, i0, i1)
        at = i0 + fraction * (i1 - i0)
        return Rectangle(r0, r1, i0, at), Rectangle(r0, r1, at, i1)


DEFAULT_WINDOW = Rectangle(-1.0, 1.0, 0.5, 40.0)


@dataclass(frozen=True)
class Zero:
    """One isolated zero with its multiplicity.

    ``refined`` is True when Newton on f^(multiplicity - 1) ended inside the
    box that counted the zero, where f and each derivative up to that one
    is <= 1e-12 of its own term scale.
    Only a simple zero can be unrefined; its location is then that box's
    contour centroid, taken about the box's center.
    """

    location: complex
    multiplicity: int
    refined: bool = True


@dataclass(frozen=True)
class ZeroSet:
    """Zeros inside ``window`` by Re (rounded to 1e-9), then Im; total counts multiplicity."""

    zeros: tuple[Zero, ...]
    window: Rectangle
    total: int


@dataclass(frozen=True)
class RatioFit:
    """Best fit f(p) ~ a * exp(beta * p) * g(p) over a real sample set."""

    a: float
    beta: float
    residual: float


class _Stack(NamedTuple):
    """Sums of one term count as one kernel argument: row i of ``exponents``
    and ``multiplicities`` is sum i, and ``degree`` is a column of their
    degrees."""

    exponents: np.ndarray
    multiplicities: np.ndarray
    degree: np.ndarray


def _stack(polys: list[ExpPoly]) -> _Stack:
    # read from the terms: the cached per-sum arrays cost more to build than this
    terms = np.array([f.terms for f in polys])
    mults = terms[..., 1]
    return _Stack(terms[..., 0], mults, mults.sum(axis=1, keepdims=True))


def from_vector(v: RealVector) -> ExpPoly:
    """Exponential sum of the norm curve of ``v``: exponents ln|v_j|, zeros dropped.

    Exponents within 1e-12 (absolute) of each other collapse into one term
    with summed multiplicity, so repeated coordinate magnitudes become
    integer coefficients.
    """
    betas = sorted(math.log(m) for m in v.nonzero_magnitudes())
    terms: list[tuple[float, int]] = []
    group_start = betas[0]
    count = 0
    for b in betas:
        if count and b - group_start > _MERGE_TOL:
            terms.append((group_start, count))
            group_start = b
            count = 0
        count += 1
    terms.append((group_start, count))
    return ExpPoly(tuple(terms))


def _parts(
    f: ExpPoly | _Stack, ps: complex | np.ndarray, order: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(M, S, S', bound) of the derivative f^(order) at the points ``ps`` (a
    scalar is one point).

    f^(order) = exp(M) * S and f^(order+1) = exp(M) * S'.  M is the largest
    real part over terms of exponent * p, so no summand of S exceeds its
    coefficient c_j * beta_j^order and nothing overflows while |M| < ~709.
    bound = sum_j |c_j * beta_j^order * exp(beta_j p - M)|.

    ``f`` may be a ``_Stack`` of sums of one term count (exponents (n, t)):
    each result then has one row per sum, and each row holds the bits of
    that sum's own call, since every sum is reduced over its terms alone.
    """
    ps = np.asarray(ps).reshape(-1)
    betas = f.exponents
    re = ps.real
    m_val = np.maximum(betas[..., :1] * re, betas[..., -1:] * re)
    coeffs = f.multiplicities * betas**order if order else f.multiplicities
    weighted = coeffs[..., None] * np.exp(betas[..., None] * ps - m_val[..., None, :])
    s_val = np.add.reduce(weighted, axis=-2)
    ds_val = np.add.reduce(betas[..., None] * weighted, axis=-2)
    bound = np.add.reduce(np.abs(weighted), axis=-2)
    return m_val, s_val, ds_val, bound


def _chunked_parts(
    f: ExpPoly | _Stack, ps: complex | list[complex] | np.ndarray, order: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``_parts`` of f^(``order``) at ``ps``, one kernel call per
    _MAX_CALL_POINTS points, or per _MAX_STACK_ELEMENTS // terms points
    when fewer (at least 3).

    A call of 2 or more points gives every point the same values as one
    call of all of them: no chunk holds one point (NumPy sums a lone
    point's terms in the other order, which can differ in the last bits),
    since a remainder of one point makes the last two chunks cap - 1 and 2.
    """
    ps = np.asarray(ps).reshape(-1)
    cap = min(_MAX_CALL_POINTS, max(3, _MAX_STACK_ELEMENTS // np.size(f.exponents)))
    if ps.size <= cap:
        return _parts(f, ps, order)
    cuts = [min(lo, ps.size - 2) for lo in range(cap, ps.size, cap)]
    chunks = [_parts(f, chunk, order) for chunk in np.split(ps, cuts)]
    return tuple(np.concatenate(part, axis=-1) for part in zip(*chunks))


def _stacks(sizes: list[int], points: int) -> list[tuple[int, list[int]]]:
    """(size, rows) for each stacked call over ``sizes``: the rows of one size,
    at most _MAX_STACK_ELEMENTS // (size x ``points``) of them (at least one)."""
    groups: dict[int, list[int]] = {}
    for row, size in enumerate(sizes):
        groups.setdefault(size, []).append(row)
    calls = []
    for size, rows in groups.items():
        step = max(1, _MAX_STACK_ELEMENTS // (size * points))
        calls += [(size, rows[lo : lo + step]) for lo in range(0, len(rows), step)]
    return calls


def _singular(f: ExpPoly | _Stack, s_val: np.ndarray) -> np.ndarray:
    """Where f is numerically zero: |S| <= 1e-12 * degree, the coefficient total."""
    return np.abs(s_val) <= 1e-12 * f.degree


def _log(
    f: ExpPoly | _Stack, ps: complex | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(M + log(S), S, S') at ``ps``; SingularEvaluationError where
    ``_singular``, naming the first such point."""
    m_val, s_val, ds_val, _ = _chunked_parts(f, ps)
    singular = _singular(f, s_val)
    if singular.any():
        p = np.broadcast_to(np.asarray(ps).reshape(-1), singular.shape)[singular][0].item()
        raise SingularEvaluationError(f"f is numerically zero at p={p!r}", point=p)
    return m_val + np.log(s_val), s_val, ds_val


def evaluate(f: ExpPoly, p: complex) -> complex:
    """f(p), overflow-safe for |exponent * Re p| <= 700."""
    m_val, s_val, _, _ = _parts(f, complex(p))
    return complex(np.exp(m_val[0]) * s_val[0])


def evaluate_log(f: ExpPoly, p: complex) -> complex:
    """Principal log of f(p), imaginary part in (-pi, pi].

    Computed as M + log(S) with the dominant real exponent factored out, so
    large |Re(exponent * p)| never overflows.  Raises SingularEvaluationError
    when |S| <= 1e-12 * f.degree, that is when |f(p)| is at most 1e-12 of
    exp(M) times the coefficient total, which is at least the local term
    scale sum_j c_j exp(Re(beta_j p)).
    """
    return complex(_log(f, complex(p))[0][0])


def log_derivative(f: ExpPoly, p: complex) -> complex:
    """f'(p)/f(p); the exp(M) factors cancel, so this never overflows.
    Singular where evaluate_log is."""
    _, s_val, ds_val = _log(f, complex(p))
    return complex(ds_val[0] / s_val[0])


def relative_magnitude(f: ExpPoly, p: complex) -> float:
    """|f(p)| divided by the local term scale sum_j c_j exp(beta_j Re p); in [0, 1]."""
    _, s_val, _, bound = _parts(f, complex(p))
    return float(abs(s_val[0]) / bound[0])


# ---------------------------------------------------------------------------
# Contour quadrature over rectangle boundaries
# ---------------------------------------------------------------------------


def _base_count(length: float) -> int:
    """Base panels of an edge of this length: max(4, min(160, ceil(1.25 L)))."""
    return min(max(math.ceil(1.25 * length), 4), 160)


# The ends of n equal base panels on [0, 1], for every base panel count n.
_FRACTIONS = {n: np.arange(n + 1) / n for n in range(4, 161)}


@dataclass(eq=False, slots=True)
class _Box:
    """A box of a zero search: its rectangle and the stored panels of its
    boundary, each with the sign of the box's counterclockwise direction
    along the panel's line; once counted, its count and its (s_0, s_1,
    error estimate) from ``_contour_sums``."""

    rect: Rectangle
    panels: np.ndarray
    signs: np.ndarray
    count: int = 0
    sums: tuple = ()


class _Edges:
    """The contour panels of one zero search, each evaluated once.

    Every box boundary of a search lies on the window's four edges and on
    the cuts.  A panel is an interval [lo, hi] of one such line, Im p =
    ``fixed`` or, if ``vertical``, Re p = ``fixed``.  Evaluated, it keeps
    its midpoint ``mid``, its ``length``, its ``step`` (dp/dx times half
    its length), the Kronrod terms w_k f'/f at its 15 nodes (``terms``),
    its integral ``k0``, its first moment about its midpoint ``k1`` and its
    |K - G| estimate ``err``.  Panels are appended, never
    changed and never evaluated again: a panel bisected for a count, or cut
    where a box is split, gets pieces (``kid_count`` of them from ``kids``,
    in the line's direction), which ``resolve`` puts in its place.
    """

    def __init__(self, f: ExpPoly) -> None:
        self.f = f
        self.size = self.evaluated = self.capacity = 0

    def _grow(self, cap: int) -> None:
        """Room for ``cap`` panels: each field is a row of one of five blocks."""
        blocks = (
            np.empty((5, cap)),
            np.empty((3, cap), np.intp),
            np.empty((4, cap), complex),
            np.empty(cap, bool),
            np.empty((cap, _KRONROD_NODES.size), complex),
        )
        if self.size:
            for old, new in zip(self._blocks, blocks[:4]):
                new[..., : self.size] = old[..., : self.size]
            blocks[4][: self.size] = self.terms[: self.size]
        self._blocks, self.capacity = blocks, cap
        self.fixed, self.lo, self.hi, self.length, self.err = blocks[0]
        self.depth, self.kids, self.kid_count = blocks[1]
        self.mid, self.step, self.k0, self.k1 = blocks[2]
        self.vertical, self.terms = blocks[3:]

    def add(self, vertical, fixed, lo, hi, depth) -> int:
        """Append unevaluated panels [lo, hi] on the lines (vertical, fixed);
        the index of the first."""
        start, end = self.size, self.size + len(lo)
        if end > self.capacity:
            self._grow(max(end, 2 * self.capacity))
        new = slice(start, end)
        self.vertical[new], self.fixed[new], self.lo[new], self.hi[new] = vertical, fixed, lo, hi
        self.depth[new], self.kid_count[new] = depth, 0
        self.size = end
        return start

    def lines(
        self, segments: list[tuple[bool, float, float, float]]
    ) -> tuple[np.ndarray, list[int]]:
        """Base panels on each segment (vertical, fixed, lo, hi) of a line
        (``_base_count`` equal ones): their indices, segment after segment,
        and each segment's count."""
        counts, lows, highs = [], [], []
        for _, _, lo, hi in segments:
            n = _base_count(hi - lo)
            ends = lo + (hi - lo) * _FRACTIONS[n]
            ends[-1] = hi
            counts.append(n)
            lows.append(ends[:-1])
            highs.append(ends[1:])
        vertical, fixed = np.array([s[:2] for s in segments]).T
        lo, hi = np.concatenate(lows), np.concatenate(highs)
        start = self.add(vertical.repeat(counts), fixed.repeat(counts), lo, hi, 0)
        return np.arange(start, self.size), counts

    def outline(self, rect: Rectangle) -> _Box:
        """A box of base panels on four new lines along ``rect``'s edges."""
        r0, r1, i0, i1 = rect.re_min, rect.re_max, rect.im_min, rect.im_max
        edges = [(False, i0, r0, r1), (True, r1, i0, i1), (False, i1, r0, r1), (True, r0, i0, i1)]
        panels, counts = self.lines(edges)
        return _Box(rect, panels, np.repeat((1.0, 1.0, -1.0, -1.0), counts))

    def nodes(self, panels: np.ndarray | slice) -> np.ndarray:
        """The 15 Kronrod nodes of each of the evaluated ``panels``, one row
        per panel."""
        return self.mid[panels, None] + self.step[panels, None] * _KRONROD_NODES

    def moments(self, panels: np.ndarray, centers: np.ndarray) -> np.ndarray:
        """The first moment of each of ``panels`` about its box's center
        (``centers``, one per panel); inf or nan where it overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            return (self.mid[panels] - centers) * self.k0[panels] + self.k1[panels]

    def evaluate_panels(self, check: bool = False) -> float:
        """Evaluate every new panel, one kernel call per _MAX_CALL_POINTS
        nodes; with ``check``, the least relative |f| over their nodes (nan
        if one is nan)."""
        new = slice(self.evaluated, self.size)
        if new.start == new.stop:
            return math.inf
        self.evaluated = self.size
        vertical, fixed, lo, hi = self.vertical[new], self.fixed[new], self.lo[new], self.hi[new]
        along = 0.5 * (lo + hi)
        mid = self.mid[new]
        mid.real = np.where(vertical, fixed, along)
        mid.imag = np.where(vertical, along, fixed)
        self.length[new] = length = hi - lo
        # dp/dx, times the half-length: 1 along a horizontal line, i up a vertical one
        self.step[new] = step = np.where(vertical, 1j, 1.0) * (0.5 * length)
        pts = self.nodes(new)
        _, s_val, ds_val, bound = _chunked_parts(self.f, pts.ravel())
        # A node on a zero makes its panel's values non-finite, which stops
        # its box unconverged: a cut through a zero is refused, not warned
        # about.  Far from the origin the moment can overflow;
        # _judge_winding refuses it.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            integrand = (ds_val / s_val).reshape(pts.shape)
            self.terms[new] = integrand * _KRONROD_WEIGHTS
            k0, error, k1 = (integrand @ _PANEL_RULES).T
            self.k0[new] = step * k0
            self.err[new] = np.abs(step * error)
            self.k1[new] = step * step * k1
        return np.min(np.abs(s_val) / bound) if check else math.inf

    def resolve(self, panels: np.ndarray, *carried: np.ndarray) -> tuple[np.ndarray, ...]:
        """``panels`` with every replaced panel put back as its pieces, and
        each array of ``carried`` repeated to match."""
        while True:
            count = self.kid_count[panels]
            if not count.any():
                return (panels, *carried)
            reps = np.maximum(count, 1)
            at = np.repeat(np.arange(panels.size), reps)
            offset = np.arange(at.size) - np.repeat(np.cumsum(reps) - reps, reps)
            panels = np.where(count[at] > 0, self.kids[panels][at] + offset, panels[at])
            carried = tuple(c[at] for c in carried)

    def _replace(self, panels, counts, lo, hi, depth) -> None:
        """Replace each of ``panels`` by ``counts`` of the pieces [lo, hi]."""
        start = self.add(
            np.repeat(self.vertical[panels], counts),
            np.repeat(self.fixed[panels], counts),
            lo,
            hi,
            np.repeat(depth, counts),
        )
        self.kids[panels] = start + np.cumsum(counts) - counts
        self.kid_count[panels] = counts

    def bisect(self, panels: np.ndarray) -> None:
        """Replace each of ``panels`` by its two halves, one bisection deeper."""
        lo, hi = self.lo[panels], self.hi[panels]
        mid = 0.5 * (lo + hi)
        self._replace(
            panels,
            np.full(panels.size, 2),
            np.column_stack((lo, mid)).ravel(),
            np.column_stack((mid, hi)).ravel(),
            self.depth[panels] + 1,
        )

    def cut(self, pairs: list[tuple[_Box, Rectangle, Rectangle]]) -> list[_Box]:
        """The halves of each (box, low half, high half) of ``pairs``, two
        boxes per pair, low first.

        A half takes its box's panels on its side of the cut; a panel that
        straddles the cut is replaced by its pieces on either side.  The cut
        line gets base panels once, and both halves take them, with opposite
        signs.
        """
        # per pair its cut line's segment: a vertical one across a wide box
        segments = []
        for box, low, _ in pairs:
            r = box.rect
            if low.re_max < r.re_max:
                segments.append((True, low.re_max, r.im_min, r.im_max))
            else:
                segments.append((False, low.im_max, r.re_min, r.re_max))
        vertical = np.array([s[0] for s in segments])
        at = np.array([s[1] for s in segments])
        pair = np.repeat(np.arange(len(pairs)), [box.panels.size for box, _, _ in pairs])
        panels, signs, pair = self.resolve(
            np.concatenate([box.panels for box, _, _ in pairs]),
            np.concatenate([box.signs for box, _, _ in pairs]),
            pair,
        )
        # a panel crosses the cut if it runs across the cut's line
        across = self.vertical[panels] != vertical[pair]
        cut_at = at[pair]
        straddle = across & (self.lo[panels] < cut_at) & (cut_at < self.hi[panels])
        if straddle.any():
            # each straddled panel is cut once at every cut that crosses it
            cuts: dict[int, set[float]] = {}
            for p, a in zip(panels[straddle].tolist(), cut_at[straddle].tolist()):
                cuts.setdefault(p, set()).add(a)
            ends = [[self.lo[p], *sorted(c), self.hi[p]] for p, c in cuts.items()]
            split = np.array(list(cuts), dtype=np.intp)
            self._replace(
                split,
                np.array([len(e) - 1 for e in ends]),
                [a for e in ends for a in e[:-1]],
                [b for e in ends for b in e[1:]],
                self.depth[split],
            )
            panels, signs, pair = self.resolve(panels, signs, pair)
            across = self.vertical[panels] != vertical[pair]
            cut_at = at[pair]
        high = np.where(across, self.lo[panels] >= cut_at, self.fixed[panels] > cut_at)
        line, counts = self.lines(segments)
        # the low half runs up a vertical cut and leftward along a horizontal one
        line_pair = np.repeat(np.arange(len(pairs)), counts)
        low_sign = np.where(vertical, 1.0, -1.0)[line_pair]
        half = np.concatenate((2 * pair + high, 2 * line_pair, 2 * line_pair + 1))
        order = np.argsort(half, kind="stable")
        panels = np.concatenate((panels, line, line))[order]
        signs = np.concatenate((signs, low_sign, -low_sign))[order]
        stops = np.cumsum(np.bincount(half, minlength=2 * len(pairs))).tolist()
        rects = [rect for _, low_half, high_half in pairs for rect in (low_half, high_half)]
        return [
            _Box(rect, panels[start:stop], signs[start:stop])
            for rect, start, stop in zip(rects, [0] + stops, stops)
        ]


_TWO_PI_I = 2j * math.pi


def _per_box(owner: np.ndarray, values: np.ndarray, boxes: int) -> list[complex]:
    """The sum of complex ``values`` over each box's entries (``owner``), in
    entry order."""
    real, imag = (np.bincount(owner, v, boxes).tolist() for v in (values.real, values.imag))
    return [complex(re, im) for re, im in zip(real, imag)]


def _contour_sums(
    edges: _Edges, boxes: list[_Box], check_boundary: bool = False
) -> list[tuple[complex, complex, float]]:
    """Per box of ``boxes``: (s_0, s_1, error estimate of s_0) from
    ``_box_sums``, once each box's panels are integrated.

    Locally adaptive Gauss-Kronrod over the panels ``edges`` stores for
    each box: every panel has the 15-point Kronrod rule, and |K - G|
    against the embedded 7-point Gauss rule is its error estimate.  A round
    evaluates every new panel of every box together, one kernel call per
    _MAX_CALL_POINTS points.  Each box is judged on its own: once its
    estimates sum below _WINDING_ERROR_TOL its integrals are done;
    otherwise each of its panels over its length's share of that tolerance
    is bisected, once for all the boxes that hold it, and the others are
    kept.  A box stops unconverged (error estimate at least
    _WINDING_ERROR_TOL) as soon as a panel's estimate (then inf) or first
    moment is not finite, when its next round would pass _PANEL_BUDGET
    times its base panels in all (the panels it starts with, and two per
    bisection), when a panel it would bisect has been bisected
    _MAX_BISECTIONS times, or when none of its panels is over its share.
    In the round it stops, a box keeps in ``panels`` and ``signs`` the
    panels of that round, so its sums, its halves and its higher power
    sums all start from them.
    ``check_boundary`` is for a window of its own (``count_zeros``): it
    applies the relative-|f| test to the first round's nodes and raises
    naming ``boxes[0]``.
    """
    n = len(boxes)
    sizes = [box.panels.size for box in boxes]
    owner = np.repeat(np.arange(n), sizes)
    panels = np.concatenate([box.panels for box in boxes])
    signs = np.concatenate([box.signs for box in boxes])
    rects = [box.rect for box in boxes]
    # a panel's share of the tolerance is its share of its box's perimeter
    tol = 2.0 * math.pi * _WINDING_ERROR_TOL  # in integral units
    share = np.array([tol / (2.0 * (r.width + r.height)) for r in rects])
    middle = np.array([r.center for r in rects])
    base = [_base_count(r.width) + _base_count(r.height) for r in rects]
    budget = 2 * _PANEL_BUDGET * np.array(base)
    used = np.array(sizes, dtype=float)
    live = np.ones(n, dtype=bool)
    check = check_boundary
    while True:
        rel_min = edges.evaluate_panels(check)
        if rel_min < _BOUNDARY_REL_MIN:
            raise BoundaryProximityError(
                f"contour of {boxes[0].rect} passes within relative magnitude "
                f"{rel_min:.2e} of a zero; inflate the window"
            )
        check = False
        err = edges.err[panels]
        total = np.bincount(owner, err, n)
        going = live & (tol <= total) & (total < math.inf)
        if going.any():
            pending = err > share[owner] * edges.length[panels]
            held = np.bincount(owner, pending, n)
            going &= (held > 0) & (used + 2 * held <= budget)
            finite = np.isfinite(edges.moments(panels, middle[owner]))
            if not finite.all():
                going &= np.bincount(owner, ~finite, n) == 0
            split = pending & going[owner]
            deep = edges.depth[panels[split]] >= _MAX_BISECTIONS
            if deep.any():
                going &= np.bincount(owner[split], deep, n) == 0
                split = pending & going[owner]
        ends = list(itertools.accumulate(sizes))
        for i in np.flatnonzero(live ^ going).tolist():
            boxes[i].panels = panels[ends[i] - sizes[i] : ends[i]]
            boxes[i].signs = signs[ends[i] - sizes[i] : ends[i]]
        if not going.any():
            return _box_sums(edges, boxes, 2)
        live = going
        used += 2 * held
        # a panel two boxes hold is bisected once
        chosen = np.zeros(edges.size, dtype=bool)
        chosen[panels[split]] = True
        edges.bisect(np.flatnonzero(chosen))
        keep = going[owner]
        panels, signs, owner = edges.resolve(panels[keep], signs[keep], owner[keep])
        sizes = np.bincount(owner, minlength=n).tolist()


def _box_sums(edges: _Edges, boxes: list[_Box], top: int) -> list[tuple[complex | float, ...]]:
    """Per box of ``boxes``: (s_0, ..., s_(top - 1), error estimate of s_0),
    where s_k = (1/2πi) ∮ u^k f'/f dp over the box's stored panels.

    u = (p - c) / r are the box's own coordinates (c its center, r its
    half-diagonal), so |u| <= 1 on its contour and s_k is the sum of u^k
    over its zeros, counted with multiplicity.  s_0 and s_1 come from the
    panels' integrals and first moments, s_2 and up from the Kronrod terms
    of their nodes, with no kernel call.  Each box is reduced on its own,
    in panel order, so its sums do not depend on the other boxes.  A box
    whose estimate is not finite gets (nan, ..., nan, inf).
    """
    n = len(boxes)
    owner = np.repeat(np.arange(n), [box.panels.size for box in boxes])
    panels = np.concatenate([box.panels for box in boxes])
    signs = np.concatenate([box.signs for box in boxes])
    middle = np.array([box.rect.center for box in boxes])[owner]
    with np.errstate(over="ignore", invalid="ignore"):
        rows = [signs * edges.k0[panels], signs * edges.moments(panels, middle)]
        if top > 2:
            # the nodes' terms of the first power, then of each higher one
            shifted = edges.nodes(panels) - middle[:, None]
            term = (signs * edges.step[panels])[:, None] * edges.terms[panels] * shifted
            for _ in range(2, top):
                term = term * shifted
                rows.append(np.add.reduce(term, 1))
    # every power's sum per box in one pass: s_k of box i at i * top + k
    where = owner * top + np.arange(top)[:, None]
    sums = _per_box(where.ravel(), np.array(rows).ravel(), n * top)
    total = np.bincount(owner, edges.err[panels], n).tolist()
    out = []
    for i, box in enumerate(boxes):
        error = total[i] / (2.0 * math.pi)
        if not math.isfinite(error):
            out.append((complex(math.nan),) * top + (math.inf,))
            continue
        # s_k was summed over (p - c)^k: in units of r it is divided by r^k
        # (repeated products overflow to inf, and the solve refuses a nan)
        values = [sums[i * top] / _TWO_PI_I]
        unit, inverse = 1.0, 2.0 / box.rect.diameter
        for s in sums[i * top + 1 : (i + 1) * top]:
            unit *= inverse
            values.append(s / _TWO_PI_I * unit)
        out.append((*values, error))
    return out


class _WindowCount(int):
    """The zero count of a window, with the panel store that counted it
    (``edges``) and the counted window box (``box``), so a search that
    asks ``count_zeros`` for its window builds on those panels."""

    edges: _Edges
    box: _Box


def count_zeros(f: ExpPoly, rect: Rectangle) -> int:
    """Number of zeros of f inside ``rect``, counted with multiplicity.

    Locally adaptive Gauss-Kronrod quadrature of f'/f and of its first
    moment about the center of ``rect`` (see ``_contour_sums``); accepted
    once the summed error estimate is below 1e-4 and the value sits within
    1e-3 of a non-negative integer.
    Raises BoundaryProximityError when the boundary runs too close to a
    zero (callers may inflate and retry) and QuadratureError when the
    first moment overflows float64, when no converged integer emerges
    within the work cap, or when the integer is one f cannot have: a
    rectangle of height h holds at most
    h * (beta_max - beta_min) / 2pi + len(terms) - 1 zeros (Polya).
    The count is an int that also carries the panels it was integrated on
    (``_WindowCount``).
    """
    edges = _Edges(f)
    box = edges.outline(rect)
    (box.sums,) = _contour_sums(edges, [box], True)
    counted = _judge_winding(f, rect, box.sums)
    if isinstance(counted, Exception):
        raise counted
    box.count = counted
    total = _WindowCount(counted)
    total.edges, total.box = edges, box
    return total


def _count_adaptive(
    edges: _Edges, boxes: list[_Box]
) -> list[int | QuadratureError | BoundaryProximityError]:
    """Per box of ``boxes``: its count, or the error that refuses it.

    All boxes are integrated in one ``_contour_sums`` batch, without the
    boundary test, and each is judged on its own by ``_judge_winding``.
    """
    for box, sums in zip(boxes, _contour_sums(edges, boxes)):
        box.sums = sums
    return [_judge_winding(edges.f, box.rect, box.sums) for box in boxes]


def _judge_winding(
    f: ExpPoly, rect: Rectangle, sums: tuple[complex, ...]
) -> int | QuadratureError | BoundaryProximityError:
    """The count that the contour ``sums`` (s_0, s_1, ..., error estimate)
    of one box give, or the error that refuses it."""
    w0, s1, err = sums[0], sums[1], sums[-1]
    spread = f.exponents[-1] - f.exponents[0]
    # height / 2pi first: height * spread can overflow on a window the parser takes
    max_count = rect.height / (2.0 * math.pi) * spread + len(f.terms) - 1
    if math.isfinite(err):
        # an overflowing moment leaves the winding noise, so it is refused first
        if not (math.isfinite(s1.real) and math.isfinite(s1.imag)):
            return QuadratureError(f"first moment over {rect} overflows float64")
        n = round(w0.real)
        # the slack keeps a count that meets the bound from failing on rounding
        if abs(n) > max_count * (1.0 + 1e-9):
            return QuadratureError(
                f"winding over {rect} came to {w0.real:.4g}, but f has "
                f"at most {max_count:.4g} zeros there"
            )
        if err < _WINDING_ERROR_TOL and n >= 0 and abs(w0 - n) < _QUAD_TOL:
            return n
        # A winding near a half-integer means a zero sits on the contour
        # itself; on an outer window that calls for inflation.
        if abs(w0 - (math.floor(w0.real) + 0.5)) < _QUAD_TOL:
            return BoundaryProximityError(
                f"winding over {rect} came to {w0.real:.4f}: a zero lies on the contour"
            )
    return QuadratureError(
        f"winding integral over {rect} did not converge on an integer "
        f"(value {w0}, error estimate {err:.2e})"
    )


def _newton_polish(
    f: ExpPoly, starts: list[tuple[complex, Rectangle, int]]
) -> list[tuple[complex, bool]]:
    """Per (z0, rect, order) of ``starts``: refine the estimate z0 of a zero
    of multiplicity order + 1 inside rect by Newton on f^(order), where that
    zero is simple, to (the zero, True); else (z0, False).

    A point is accepted only inside its rect (outside it is some other zero)
    where f and each derivative up to f^(order) is within 1e-12 of its own
    term scale: near a multiple zero |f| is that small in a wide disc, and a
    zero of f^(order) alone may be no zero of f or of a lower derivative.
    The first point that meets the test on f^(order) can lie ~1e-12 from
    the zero, so Newton takes one step more.
    Every Newton iteration evaluates all the live points of one order in
    one kernel call, and so does each derivative of the final test.  Each
    point takes the steps it would take alone; only a batch of one point
    sums its terms in the other order (see ``_chunked_parts``), so a point
    polished with others can end a few ulp from where it ends alone.
    """
    z = [z0 for z0, _, _ in starts]
    converged = set()
    for order in {k for _, _, k in starts}:
        # (index, point, whether it is the step past the test)
        live = [(i, z0, False) for i, (z0, _, k) in enumerate(starts) if k == order]
        for iteration in itertools.count():
            # a step past the test is tried even after the last iteration
            live = [entry for entry in live if entry[2] or iteration < _MAX_NEWTON_ITERS]
            if not live:
                break
            _, s_val, ds_val, bound = _chunked_parts(f, [p for _, p, _ in live], order)
            values = zip(live, s_val.tolist(), ds_val.tolist(), bound.tolist())
            live = []
            for (i, p, past), s, ds, b in values:
                z0, rect, _ = starts[i]
                met = abs(s) <= _NEWTON_REL_TARGET * b
                if past:
                    # kept if it still meets the test inside rect
                    if met and rect.contains(p):
                        z[i] = p
                elif met:
                    converged.add(i)
                    if ds != 0:
                        live.append((i, p - s / ds, True))
                elif ds != 0 and cmath.isfinite(s):
                    step = s / ds
                    z_new = p - step
                    if abs(z_new - z0) <= 2.0 * max(rect.width, rect.height):
                        z[i] = z_new
                        if abs(step) > 1e-17 * max(1.0, abs(z_new)):
                            live.append((i, z_new, False))
    passed = [i for i, (_, rect, _) in enumerate(starts) if rect.contains(z[i])]
    for k in range(1 + max((order for _, _, order in starts), default=-1)):
        # a converged Newton already met the test on f^(order) at z
        tested = [i for i in passed if k < starts[i][2] + (i not in converged)]
        if tested:
            _, s_val, _, bound = _chunked_parts(f, [z[i] for i in tested], k)
            small = (np.abs(s_val) / bound <= _NEWTON_REL_TARGET).tolist()
            failed = {i for i, ok in zip(tested, small) if not ok}
            passed = [i for i in passed if i not in failed]
    refined = set(passed)
    return [(z[i], True) if i in refined else (z0, False) for i, (z0, _, _) in enumerate(starts)]


def _centroid(rect: Rectangle, sums: tuple[complex, ...]) -> complex:
    """c + r s_1 / s_0: the mean of the zeros of box ``rect`` from its contour ``sums``."""
    return rect.center + 0.5 * rect.diameter * sums[1] / sums[0]


def _hankel_solve(s: np.ndarray, n: int, noise: float) -> tuple[list[complex], list[int]] | None:
    """The distinct points u_j and multiplicities m_j (positive integers,
    summing to ``n``) with s[k] = sum_j m_j u_j^k for k < 2n, or None.

    The count d of distinct points is the numerical rank of the Hankel
    matrix H_0 = [s_(i+j)], i, j < n: the number of its singular values
    above n * ``noise``, where ``noise`` is the error estimate of the
    quadrature that gave ``s``.  An error of at most ``noise`` in every
    entry moves no singular value by more than that (Weyl), so a smaller
    one may be noise.
    The points are the eigenvalues of the pencil (H_1, H_0), H_1 = [s_(i+j+1)],
    restricted to the range of H_0 through its SVD (Kravanja, Sakurai and
    Van Barel, BIT 39, 1999).  The multiplicities solve the d x d
    Vandermonde system of s_0, ..., s_(d-1), and each must lie within 0.1
    of a positive integer.  Sums that are not finite, a rank of 0 and a
    matrix that LAPACK cannot factor give None.
    """
    s = np.asarray(s, dtype=complex)
    if not np.isfinite(s).all():
        return None
    hankel = np.add.outer(np.arange(n), np.arange(n))
    try:
        left, sigma, right = np.linalg.svd(s[hankel])
        d = int(np.count_nonzero(sigma > n * noise))
        if d == 0:
            return None
        pencil = left[:, :d].conj().T @ s[hankel + 1] @ right[:d].conj().T / sigma[:d, None]
        points = np.linalg.eigvals(pencil)
        # a huge point makes an infinite or nan multiplicity, which fails
        with np.errstate(over="ignore", invalid="ignore"):
            mult = np.linalg.solve(np.vander(points, d, increasing=True).T, s[:d])
            counts = np.rint(mult.real)
            near = np.abs(mult - counts) <= 0.1
    except np.linalg.LinAlgError:
        return None
    if not near.all() or counts.min() < 1 or counts.sum() != n:
        return None
    return points.tolist(), counts.astype(int).tolist()


def _moment_zeros(
    f: ExpPoly, boxes: list[_Box], sums: list[tuple[complex | float, ...]]
) -> list[list[Zero] | None]:
    """Per counted box of ``boxes``: its ``count`` zeros from its power
    ``sums`` (s_0, ..., s_(2 count - 1) or more, error estimate), or None.

    ``_hankel_solve`` gives their points u and multiplicities m from
    s_0, ..., s_(2 count - 1), each box on its own; each zero c + r u is
    polished by Newton on f^(m-1) as a leaf's is, the zeros of every solved
    box in one ``_newton_polish`` batch.  A box's zeros stand only if each
    is refined inside it and no two lie within _CLUSTER_DIAMETER; the
    multiplicities sum to ``count``, the winding that proved them.
    """
    pencils = [_hankel_solve(s[: 2 * box.count], box.count, s[-1]) for box, s in zip(boxes, sums)]
    starts = [
        (box.rect.center + 0.5 * box.rect.diameter * u, box.rect, m - 1)
        for box, pencil in zip(boxes, pencils)
        if pencil is not None
        for u, m in zip(*pencil)
    ]
    polished = iter(_newton_polish(f, starts))
    out: list[list[Zero] | None] = []
    for pencil in pencils:
        if pencil is None:
            out.append(None)
            continue
        # zip takes one polished zero per multiplicity, and no more
        zeros = [Zero(z, m) for m, (z, refined) in zip(pencil[1], polished) if refined]
        close = any(
            abs(a.location - b.location) <= _CLUSTER_DIAMETER
            for a, b in itertools.combinations(zeros, 2)
        )
        out.append(zeros if len(zeros) == len(pencil[1]) and not close else None)
    return out


def _isolate(window: _WindowCount) -> list[Zero]:
    """The zeros in the window ``count_zeros`` counted, in ``ZeroSet``
    order, isolated in count rounds on that count's panels.

    A box of 2 to _MOMENT_ZEROS zeros is solved from its power sums
    (``_box_sums`` and ``_moment_zeros``, every such box of a round in one
    call, so all their zeros are polished together).  A box with more
    zeros, or whose solve fails, splits if it is wider than
    _CLUSTER_DIAMETER.  Each round counts
    in one ``_count_adaptive`` batch the halves of every box being split: a
    box new to the round cut at the first of _CUT_FRACTIONS of its longer
    side, a box whose last try failed at the next.  The halves are built
    on the panels their box was counted on (``_Edges.cut``), so each piece
    of contour is evaluated once in the whole search.  Halves that both
    count must sum to their box's count and are the next round's new
    boxes.  Cuts lie at 0.35-0.55 of the longer side, so two in a row leave
    both sides at most 0.65 of it, and _CLUSTER_DIAMETER ends every search
    without a depth cap.

    The leaves are the boxes of one zero, the boxes no wider than
    _CLUSTER_DIAMETER and the boxes that no try splits.  After the last
    round every leaf is polished in one ``_newton_polish`` batch, a leaf of
    m zeros by Newton of order m - 1 from the centroid of its own power sums
    (``_centroid``).  Then, leaf by leaf, a leaf of several zeros that
    Newton does not verify as one m-fold zero fails the search, and so does
    an unrefined simple zero whose centroid lies outside its leaf.  A leaf
    of at least len(f.terms) zeros fails before any is polished.
    """
    edges = window.edges
    zeros = []
    leaves = []
    new = [window.box]
    retry = []
    while True:
        split = []
        solvable = [box for box in new if 1 < box.count <= _MOMENT_ZEROS]
        if solvable:
            sums = _box_sums(edges, solvable, 2 * max(box.count for box in solvable))
            solved = iter(_moment_zeros(edges.f, solvable, sums))
        for box in new:
            solution = 1 < box.count <= _MOMENT_ZEROS and next(solved)
            if solution:
                zeros += solution
            elif box.count > 1 and box.rect.diameter > _CLUSTER_DIAMETER:
                split.append(box)
            elif box.count:
                leaves.append(box)
        # (box, the index of the cut fraction to try)
        tries = [(box, 0) for box in split] + retry
        if not tries:
            break
        halves = edges.cut([(box, *box.rect.split(_CUT_FRACTIONS[k])) for box, k in tries])
        counted = _count_adaptive(edges, halves)
        new, retry = [], []
        for j, (box, k) in enumerate(tries):
            counts = counted[2 * j : 2 * j + 2]
            if not any(isinstance(n, Exception) for n in counts):
                if sum(counts) != box.count:
                    raise QuadratureError(
                        f"subdivision of {box.rect} lost zeros: {counts} vs parent {box.count}"
                    )
                for half, n in zip(halves[2 * j : 2 * j + 2], counts):
                    half.count = n
                    new.append(half)
            elif k + 1 < len(_CUT_FRACTIONS):
                retry.append((box, k + 1))
            else:
                leaves.append(box)
    for box in leaves:
        # a sum of t terms has no zero of multiplicity t or more: the
        # Vandermonde matrix of its distinct exponents is nonsingular
        if box.count >= len(edges.f.terms):
            raise QuadratureError(f"no subdivision of {box.rect} counts its {box.count} zeros")
    starts = [(_centroid(box.rect, box.sums), box.rect, box.count - 1) for box in leaves]
    for box, (z, refined) in zip(leaves, _newton_polish(edges.f, starts)):
        if box.count > 1 and not refined:
            raise QuadratureError(f"no subdivision of {box.rect} counts its {box.count} zeros")
        if not box.rect.contains(z):
            raise QuadratureError(
                f"the centroid {z} of the zero counted in {box.rect} lies outside it"
            )
        zeros.append(Zero(z, box.count, refined))
    # rounding Re keeps zeros on one vertical line in Im order despite last-bit noise
    return sorted(zeros, key=lambda z: (round(z.location.real, 9), z.location.imag))


def find_zeros(f: ExpPoly, rect: Rectangle) -> ZeroSet:
    """Locate all zeros of f inside ``rect`` with multiplicities.

    Every winding count (the window's and each box's) is accepted as in
    ``count_zeros``.  The window inflates by small factors (up to
    ``_MAX_INFLATIONS`` times) when its boundary starts out too close to a
    zero or its count does not converge; the window actually used is
    recorded on the result.  Isolation works in count rounds (``_isolate``):
    a box is cut in two across its longer side, at 0.45 of it, else at 0.55,
    else at 0.35, until both halves count, and all boxes split in a round
    share each quadrature round of its batch, so a search makes a kernel
    call per quadrature round of a count round, not per box.  The search
    keeps every panel it evaluates (``_Edges``): a half takes its box's
    panels on its outer edges and shares its cut with its sibling, so each
    piece of contour is evaluated once.  f is evaluated only on contours
    and in Newton.  A box of 2 to 4 zeros is solved from power sums
    reduced from its stored panels (``_moment_zeros``) and splits only if a
    check of that solve fails.  A box of one zero, a box of diameter at most 1e-6 and a box
    that none of its three cuts can count are leaves.
    Every zero, solved or a leaf's, is polished by Newton on f^(m-1) to a
    point inside its box where f, f', ..., f^(m-1) are each <= 1e-12 of
    their own term scale.  The zeros of all boxes solved in a count round
    are polished together, and all leaves together after the last round,
    one kernel call per Newton iteration and order, not per zero; a box
    whose solve fails has polished all of its zeros before it splits.  A
    simple zero that does not polish is reported at its box's centroid with
    ``refined=False``, and a centroid outside the box raises
    QuadratureError; so does a leaf of several zeros that does not polish
    to one m-fold zero.
    """
    window, (total,) = _counted_window((f,), rect)
    return ZeroSet(tuple(_isolate(total)), window, int(total))


def _counted_window(
    polys: tuple[ExpPoly, ...], rect: Rectangle
) -> tuple[Rectangle, list[_WindowCount]]:
    """``rect`` or its first inflation over which every sum counts cleanly.

    A count that does not converge inflates too: a zero on the edge can
    slip between the first round's check nodes.  The last of
    _MAX_INFLATIONS + 1 tries raises.
    """
    window = rect
    for _ in range(_MAX_INFLATIONS):
        try:
            return window, [count_zeros(f, window) for f in polys]
        except (BoundaryProximityError, QuadratureError):
            window = window.inflate(_INFLATION_FACTOR)
    return window, [count_zeros(f, window) for f in polys]


def zero_multiset_equal(f: ExpPoly, g: ExpPoly, rect: Rectangle) -> bool:
    """Whether f and g have the same zero multiset inside ``rect``.

    Unequal counts over the shared window answer False; otherwise both zero
    sets are isolated, as in ``find_zeros``, and matched greedily
    nearest-first, a match requiring equal multiplicities and a distance of
    at most 1e-6 (``_zero_multisets_equal`` of the two sums).
    """
    return _zero_multisets_equal([f, g], rect)[0]


def _zero_multisets_equal(polys: list[ExpPoly], rect: Rectangle) -> list[bool]:
    """``zero_multiset_equal(polys[i], polys[j], ...)`` for every i < j, in order.

    Every sum is counted once over one shared window (inflated jointly until
    every count is clean), and only the sums whose total another sum shares
    are isolated, each once.
    """
    window, totals = _counted_window(tuple(polys), rect)
    zero_sets = [_isolate(n) if totals.count(n) > 1 else None for n in totals]
    return [
        totals[i] == totals[j] and _zeros_match(zero_sets[i], zero_sets[j])
        for i in range(len(polys))
        for j in range(i + 1, len(polys))
    ]


def _zeros_match(zf: list[Zero], zg: list[Zero]) -> bool:
    """Greedy nearest-first matching of two zero lists of equal total."""
    remaining = list(zg)
    for zero in zf:
        best = None
        best_dist = math.inf
        for j, cand in enumerate(remaining):
            if cand.multiplicity != zero.multiplicity:
                continue
            d = abs(cand.location - zero.location)
            if d < best_dist:
                best, best_dist = j, d
        if best is None or best_dist > _MATCH_TOL:
            return False
        remaining.pop(best)
    return not remaining


_DEFAULT_RATIO_SAMPLES = tuple(
    4.5 - 3.5 * math.cos(k * math.pi / 15) for k in range(16)
)
"""Chebyshev-Lobatto points on [1, 8]; spread enough that inequivalent
vector pairs cannot hide behind a single a * exp(beta p) factor."""


def ratio_factor(
    f: ExpPoly, g: ExpPoly, sample_ps: list[float] | None = None
) -> RatioFit:
    """Fit f(p) = a * exp(beta p) * g(p) over real samples.

    a = f(0)/g(0) (exact: the ratio of term-count totals), beta the
    least-squares slope of ln(f/(a g)), residual the worst relative
    mismatch on the samples.  When f and g come from equivalent vectors
    with scale ratio c this returns a = 1, beta = ln c, residual ~ 0.
    """
    return _ratio_fits([f, g], [(0, 1)], sample_ps)[0]


def _ratio_fits(
    polys: list[ExpPoly], pairs: list[tuple[int, int]], sample_ps: list[float] | None = None
) -> list[RatioFit]:
    """``ratio_factor(polys[i], polys[j], sample_ps)`` for every (i, j) in ``pairs``.

    Each sum is evaluated once: the sums of one term count stack into one
    ``_log`` call (cut by ``_stacks``).  The fits are array arithmetic over a
    (pairs x samples) block, each row reduced on its own (no matmul), so a
    pair's fit does not depend on the other pairs in the batch.
    """
    if not pairs:
        return []
    ps = np.array(_DEFAULT_RATIO_SAMPLES if sample_ps is None else sample_ps, dtype=float)
    if len(set(ps.tolist())) < 2:
        raise InvalidInputError("need at least two distinct sample points")
    # sum / size: the bits of mean() without its dispatch
    with np.errstate(over="ignore", invalid="ignore"):
        centered = ps - np.add.reduce(ps) / ps.size
        spread = centered @ centered
    # a nan or inf sample makes the spread nan, as does one that overflows it
    if not math.isfinite(spread):
        raise InvalidInputError(
            f"sample points {ps.tolist()} must be finite, their spread within float64"
        )
    logs = np.empty((len(polys), ps.size))
    for _, rows in _stacks([len(f.terms) for f in polys], ps.size):
        logs[rows] = _log(_stack([polys[i] for i in rows]), ps)[0]
    fs, gs = np.array(pairs).T
    degrees = np.array([f.degree for f in polys])
    a = (degrees[fs] / degrees[gs]).tolist()
    # math.log, not np.log, which may round the last bit differently
    log_of = {x: math.log(x) for x in set(a)}
    log_f = logs[fs]
    diffs = log_f - logs[gs] - np.array([log_of[x] for x in a])[:, None]
    means = np.add.reduce(diffs, axis=1) / ps.size
    slope = np.add.reduce(centered * (diffs - means[:, None]), axis=1)
    beta = slope / spread
    w = diffs - beta[:, None] * ps  # log of f / (a exp(beta p) g)
    # |f - a exp(beta p) g| / max(1, |f|) = |1 - exp(-w)| * min(1, |f|)
    mismatch = np.abs(1.0 - np.exp(np.minimum(-w, 700.0)))
    mismatch[-w > 700] = math.inf
    damp = np.exp(np.minimum(log_f, 0.0))
    # fmax skips the NaN of inf * 0 where |f| underflows
    residual = np.fmax.reduce(mismatch * damp, axis=1, initial=0.0)
    return [
        RatioFit(x, b, r) for x, b, r in zip(a, beta.tolist(), residual.tolist())
    ]
