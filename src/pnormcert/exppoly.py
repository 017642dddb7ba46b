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
import contextlib
import contextvars
import itertools
import math
import sys
from collections.abc import Iterator
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
# The offsets a of a box's cuts (``_cut_fractions``), tried in turn until
# every piece counts: a box cut in two is cut at 0.45, 0.55, then 0.35 of
# its longer side.  The first is off the midline: in a symmetric window
# the zeros of sums like 1 + 2^p all lie on it.
_CUT_FRACTIONS = (-0.1, 0.1, -0.3)
# The most pieces one cut makes: it bounds the boxes a round counts, and
# with them a round's panels.
_MAX_PIECES = 16
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


def _read_only(values: list | np.ndarray) -> np.ndarray:
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

    def split(self, fractions: list[float]) -> tuple["Rectangle", ...]:
        """Cut across the longer side (the width on a tie) at each of the
        increasing ``fractions`` of it from its low end: into pieces left
        to right, or bottom to top.  Adjacent pieces share the very float
        of their cut."""
        r0, r1, i0, i1 = self.re_min, self.re_max, self.im_min, self.im_max
        if self.width >= self.height:
            at = [r0, *(r0 + t * (r1 - r0) for t in fractions), r1]
            return tuple(Rectangle(a, b, i0, i1) for a, b in zip(at, at[1:]))
        at = [i0, *(i0 + t * (i1 - i0) for t in fractions), i1]
        return tuple(Rectangle(r0, r1, a, b) for a, b in zip(at, at[1:]))


DEFAULT_WINDOW = Rectangle(-1.0, 1.0, 0.5, 40.0)


def _check_reach(where: str, lo: float, hi: float, headroom: bool = False) -> None:
    """Refuses the window axis ``where`` = [lo, hi] if a bound of it (with
    ``headroom``, of its _MAX_INFLATIONS-th inflation) times the largest
    difference of two exponents ln|x| is not finite: the kernel forms
    exponent * p - M."""
    spread = math.log(sys.float_info.max) - math.log(math.ulp(0.0))
    reach = (_INFLATION_FACTOR**_MAX_INFLATIONS if headroom else 1.0) * spread
    if not math.isfinite(max(abs(lo), abs(hi)) * reach):
        raise InvalidInputError(
            f"{where}: a bound above {sys.float_info.max / reach:.2g} "
            "in magnitude is out of float64's reach"
        )


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
    """Best fit f(p) ~ a * exp(beta * p) * g(p) over the ratio samples
    (``ratio_factor``)."""

    a: float
    beta: float
    residual: float


class _Stack(NamedTuple):
    """Sums of one term count as one kernel argument: row i of ``exponents``
    and ``multiplicities`` is sum i."""

    exponents: np.ndarray
    multiplicities: np.ndarray


def _stack(polys: list[ExpPoly]) -> _Stack:
    # read from the terms: the cached per-sum arrays cost more to build than this
    terms = np.array([f.terms for f in polys])
    return _Stack(terms[..., 0], terms[..., 1])


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


def _log(f: ExpPoly, ps: complex | np.ndarray) -> tuple[np.ndarray, int | None]:
    """(M + log(S), S'/S) of the one sum f at ``ps`` as two rows, that is
    (principal log f, f'/f), and the index of the first point where f is
    numerically zero (None if there is none), where its callers
    (``_log_at``, ``continuation._track_paths``) raise.  f is numerically
    zero where |S| <= 1e-12 * f.degree, that is where |f(p)| is at most
    1e-12 of exp(M) times the coefficient total, which is at least the
    local term scale sum_j c_j exp(Re(beta_j p)).  One kernel call per
    _MAX_CALL_POINTS points (``_chunked_parts``), singular point or not."""
    m_val, s_val, ds_val, _ = _chunked_parts(f, ps)
    singular = np.abs(s_val) <= 1e-12 * f.degree
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.array((m_val + np.log(s_val), ds_val / s_val))
    return out, int(np.argmax(singular)) if singular.any() else None


def _log_at(f: ExpPoly, p: complex) -> tuple[complex, complex]:
    """(principal log f, f'/f) at the one point p (``_log``); raises
    SingularEvaluationError where f is numerically zero."""
    p = complex(p)
    out, singular = _log(f, p)
    if singular is not None:
        raise SingularEvaluationError(f"f is numerically zero at p={p!r}", point=p)
    return complex(out[0, 0]), complex(out[1, 0])


def evaluate(f: ExpPoly, p: complex) -> complex:
    """f(p), overflow-safe for |exponent * Re p| <= 700."""
    m_val, s_val, _, _ = _parts(f, complex(p))
    return complex(np.exp(m_val[0]) * s_val[0])


def evaluate_log(f: ExpPoly, p: complex) -> complex:
    """Principal log of f(p), imaginary part in (-pi, pi].

    Computed as M + log(S) with the dominant real exponent factored out, so
    large |Re(exponent * p)| never overflows.  Raises SingularEvaluationError
    where f is numerically zero by the rule of ``_log``.
    """
    return _log_at(f, p)[0]


def log_derivative(f: ExpPoly, p: complex) -> complex:
    """f'(p)/f(p); the exp(M) factors cancel, so this never overflows.
    Singular where evaluate_log is."""
    return _log_at(f, p)[1]


def relative_magnitude(f: ExpPoly, p: complex) -> float:
    """|f(p)| divided by the local term scale sum_j c_j exp(beta_j Re p); in [0, 1]."""
    _, s_val, _, bound = _parts(f, complex(p))
    return float(abs(s_val[0]) / bound[0])


# ---------------------------------------------------------------------------
# Contour quadrature over rectangle boundaries
# ---------------------------------------------------------------------------


# The fewest and the most base panels of an edge.
_MIN_BASE_PANELS, _MAX_BASE_PANELS = 4, 160


def _base_count(length: float) -> int:
    """Base panels of an edge of length L: ceil(1.25 L), clamped to
    _MIN_BASE_PANELS ... _MAX_BASE_PANELS."""
    return min(max(math.ceil(1.25 * length), _MIN_BASE_PANELS), _MAX_BASE_PANELS)


# The ends of n equal base panels on [0, 1], for every base panel count n.
_FRACTIONS = {n: np.arange(n + 1) / n for n in range(_MIN_BASE_PANELS, _MAX_BASE_PANELS + 1)}


@dataclass(eq=False, slots=True)
class _Box:
    """A box of a zero search: its rectangle, the stored panels of its
    boundary (each on one of its four edges, which fixes the box's
    direction along it: ``_Edges.walk``) and the index of its sum in
    ``_Edges.polys``; once counted, its count and its (s_0, s_1, error
    estimate) from ``_contour_sums``."""

    rect: Rectangle
    panels: np.ndarray
    poly: int = 0
    count: int = 0
    sums: tuple = ()


class _Edges:
    """The contour panels of one zero search of the sums ``polys``, each
    evaluated once.

    Every box boundary of a search lies on its window's four edges and on
    the cuts.  A panel is an interval [lo, hi] of one such line, Im p =
    ``fixed`` or, if ``vertical``, Re p = ``fixed``, and belongs to the sum
    ``polys[poly]``: only that sum's boxes hold it.  Evaluated, it keeps
    its midpoint ``mid``, its ``length``, its ``step`` (dp/dx times half
    its length), the Kronrod terms w_k f'/f at its 15 nodes (``terms``),
    its integral ``k0``, its first moment about its midpoint ``k1`` and its
    |K - G| estimate ``err``.  Panels are appended, never
    changed and never evaluated again: a panel bisected for a count, or cut
    where a box is split, gets pieces (``kid_count`` of them from ``kids``,
    in the line's direction), which ``resolve`` puts in its place.
    """

    def __init__(self, *polys: ExpPoly) -> None:
        self.polys = polys
        self.size = self.evaluated = self.capacity = 0

    def _grow(self, cap: int) -> None:
        """Room for ``cap`` panels: each field is a row of one of five blocks."""
        blocks = (
            np.empty((5, cap)),
            np.empty((4, cap), np.intp),
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
        self.depth, self.kids, self.kid_count, self.poly = blocks[1]
        self.mid, self.step, self.k0, self.k1 = blocks[2]
        self.vertical, self.terms = blocks[3:]

    def add(self, vertical, fixed, lo, hi, depth, poly) -> int:
        """Append unevaluated panels [lo, hi] of the sums ``poly`` on the
        lines (vertical, fixed); the index of the first."""
        start, end = self.size, self.size + len(lo)
        if end > self.capacity:
            self._grow(max(end, 2 * self.capacity))
        new = slice(start, end)
        self.vertical[new], self.fixed[new], self.lo[new], self.hi[new] = vertical, fixed, lo, hi
        self.depth[new], self.kid_count[new], self.poly[new] = depth, 0, poly
        self.size = end
        return start

    def lines(
        self, segments: list[tuple[bool, float, float, float]], polys: list[int]
    ) -> tuple[np.ndarray, list[int]]:
        """Base panels on each segment (vertical, fixed, lo, hi) of a line
        (``_base_count`` equal ones), of the sum ``polys[i]`` on segment i:
        their indices, segment after segment, and each segment's count."""
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
        poly = np.repeat(polys, counts)
        start = self.add(vertical.repeat(counts), fixed.repeat(counts), lo, hi, 0, poly)
        return np.arange(start, self.size), counts

    def outline(self, rect: Rectangle, poly: int = 0) -> _Box:
        """A box of the sum ``polys[poly]`` of base panels on four new lines
        along ``rect``'s edges."""
        r0, r1, i0, i1 = rect.re_min, rect.re_max, rect.im_min, rect.im_max
        edges = [(False, i0, r0, r1), (True, r1, i0, i1), (False, i1, r0, r1), (True, r0, i0, i1)]
        return _Box(rect, self.lines(edges, [poly] * 4)[0], poly)

    def nodes(self, panels: np.ndarray | slice) -> np.ndarray:
        """The 15 Kronrod nodes of each of the evaluated ``panels``, one row
        per panel."""
        return self.mid[panels, None] + self.step[panels, None] * _KRONROD_NODES

    def walk(self, boxes: list[_Box]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every panel of ``boxes``, box after box, with the index of its box
        and the direction (1 or -1) of its box's counterclockwise walk
        along it.

        A panel's ``fixed`` is the very float of the box edge it lies on
        (the window's bound, or a cut, which ``Rectangle.split`` gives both
        pieces it separates), so the walk runs 1 along a horizontal panel
        whose ``fixed`` is the box's ``im_min`` or a vertical one whose
        ``fixed`` is its ``re_max``, and -1 along the others.
        """
        owner = np.repeat(np.arange(len(boxes)), [box.panels.size for box in boxes])
        panels = np.concatenate([box.panels for box in boxes])
        # box i's im_min at 2i, its re_max at 2i + 1
        edge = np.array([(box.rect.im_min, box.rect.re_max) for box in boxes]).ravel()
        forward = self.fixed[panels] == edge[2 * owner + self.vertical[panels]]
        return panels, owner, np.where(forward, 1.0, -1.0)

    def moments(self, panels: np.ndarray, centers: np.ndarray) -> np.ndarray:
        """The first moment of each of ``panels`` about its box's center
        (``centers``, one per panel); inf or nan where it overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            return (self.mid[panels] - centers) * self.k0[panels] + self.k1[panels]

    def evaluate_panels(self, check: bool = False) -> np.ndarray | None:
        """Evaluate every new panel: for each sum that has new panels, one
        kernel call on their nodes, in store order (one per
        _MAX_CALL_POINTS nodes).  With ``check``, the boundary test's
        reading (``_Together.window_count``): per sum the least relative
        |f| over the nodes of its new panels (inf if it has none, nan if
        one is nan); else None."""
        least = np.full(len(self.polys), math.inf) if check else None
        new = slice(self.evaluated, self.size)
        if new.start == new.stop:
            return least
        self.evaluated = self.size
        poly = self.poly[new]
        vertical, fixed, lo, hi = self.vertical[new], self.fixed[new], self.lo[new], self.hi[new]
        along = 0.5 * (lo + hi)
        mid = self.mid[new]
        mid.real = np.where(vertical, fixed, along)
        mid.imag = np.where(vertical, along, fixed)
        self.length[new] = length = hi - lo
        # dp/dx, times the half-length: 1 along a horizontal line, i up a vertical one
        self.step[new] = step = np.where(vertical, 1j, 1.0) * (0.5 * length)
        pts = self.nodes(new)
        # the panels of each sum (all of them when one sum has new panels)
        if len(self.polys) == 1 or (poly == poly[0]).all():
            groups = [(int(poly[0]), slice(None))]
        else:
            groups = [(k, poly == k) for k in sorted(set(poly.tolist()))]
        integrand = np.empty_like(pts)
        # A node on a zero makes its panel's values non-finite, which stops
        # its box unconverged: a cut through a zero is refused, not warned
        # about.  Far from the origin the moment can overflow;
        # _judge_winding refuses it.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for k, rows in groups:
                nodes = pts[rows]
                _, s_val, ds_val, bound = _chunked_parts(self.polys[k], nodes.ravel())
                integrand[rows] = (ds_val / s_val).reshape(nodes.shape)
                if check:
                    least[k] = np.min(np.abs(s_val) / bound)
            self.terms[new] = integrand * _KRONROD_WEIGHTS
            k0, error, k1 = (integrand @ _PANEL_RULES).T
            self.k0[new] = step * k0
            self.err[new] = np.abs(step * error)
            self.k1[new] = step * step * k1
        return least

    def resolve(self, panels: np.ndarray, carried: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``panels`` with every replaced panel put back as its pieces, and
        ``carried`` (one entry per panel) repeated to match."""
        while True:
            count = self.kid_count[panels]
            if not count.any():
                return panels, carried
            reps = np.maximum(count, 1)
            at = np.repeat(np.arange(panels.size), reps)
            offset = np.arange(at.size) - np.repeat(np.cumsum(reps) - reps, reps)
            panels = np.where(count[at] > 0, self.kids[panels][at] + offset, panels[at])
            carried = carried[at]

    def _replace(self, panels, counts, lo, hi, depth) -> None:
        """Replace each of ``panels`` by ``counts`` of the pieces [lo, hi]."""
        start = self.add(
            np.repeat(self.vertical[panels], counts),
            np.repeat(self.fixed[panels], counts),
            lo,
            hi,
            np.repeat(depth, counts),
            np.repeat(self.poly[panels], counts),
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

    def cut(self, cuts: list[tuple[_Box, tuple[Rectangle, ...]]]) -> list[_Box]:
        """The pieces of each (box, pieces) of ``cuts``, box after box, in
        the order ``Rectangle.split`` gives them.

        A piece takes its box's panels within its span; a panel that
        straddles cuts is replaced by its pieces between them.  Each cut
        line gets base panels once, and the two pieces it separates both
        take them: it is the top or right edge of the lower piece and the
        bottom or left one of the higher, so each walks it its own way
        (``walk``).
        """
        # per box the segments of its cut lines: vertical ones across a wide box
        rows = []
        for box, pieces in cuts:
            r = box.rect
            if pieces[0].re_max < r.re_max:
                rows.append([(True, piece.re_max, r.im_min, r.im_max) for piece in pieces[:-1]])
            else:
                rows.append([(False, piece.im_max, r.re_min, r.re_max) for piece in pieces[:-1]])
        vertical = np.array([row[0][0] for row in rows])
        # box i's cuts, increasing, in row i, padded with inf
        at = np.full((len(rows), max(map(len, rows))), math.inf)
        for i, row in enumerate(rows):
            at[i, : len(row)] = [segment[1] for segment in row]
        owner = np.repeat(np.arange(len(cuts)), [box.panels.size for box, _ in cuts])
        panels, owner = self.resolve(np.concatenate([box.panels for box, _ in cuts]), owner)
        # a panel crosses its box's cuts if it runs across their lines
        across = self.vertical[panels] != vertical[owner]
        lo, hi = self.lo[panels, None], self.hi[panels, None]
        straddle = across[:, None] & (lo < at[owner]) & (at[owner] < hi)
        if straddle.any():
            # each straddled panel is cut once at every cut that crosses it
            cut: dict[int, set[float]] = {}
            where, which = np.nonzero(straddle)
            for p, a in zip(panels[where].tolist(), at[owner[where], which].tolist()):
                cut.setdefault(p, set()).add(a)
            ends = [[self.lo[p], *sorted(c), self.hi[p]] for p, c in cut.items()]
            split = np.array(list(cut), dtype=np.intp)
            self._replace(
                split,
                np.array([len(e) - 1 for e in ends]),
                [a for e in ends for a in e[:-1]],
                [b for e in ends for b in e[1:]],
                self.depth[split],
            )
            panels, owner = self.resolve(panels, owner)
            across = self.vertical[panels] != vertical[owner]
        # a panel lies in its box's piece above as many cuts as lie at or
        # below its start (across them) or its line (along them, never on one)
        place = np.where(across, self.lo[panels], self.fixed[panels])
        below = (at[owner] <= place[:, None]).sum(axis=1)
        lines = [len(row) for row in rows]
        segments = [segment for row in rows for segment in row]
        line, counts = self.lines(segments, np.repeat([box.poly for box, _ in cuts], lines))
        # box i's pieces are numbered from first[i]; its cut g (counted over
        # all boxes) lies between the pieces g + i and g + i + 1
        first = np.cumsum(lines) - lines + np.arange(len(rows))
        low = np.repeat(np.arange(len(segments)) + np.repeat(np.arange(len(rows)), lines), counts)
        piece = np.concatenate((first[owner] + below, low, low + 1))
        panels = np.concatenate((panels, line, line))[np.argsort(piece, kind="stable")]
        stops = np.cumsum(np.bincount(piece, minlength=len(segments) + len(rows))).tolist()
        rects = [rect for _, pieces in cuts for rect in pieces]
        polys = [box.poly for box, pieces in cuts for _ in pieces]
        return [
            _Box(rect, panels[start:stop], poly)
            for rect, poly, start, stop in zip(rects, polys, [0] + stops, stops)
        ]


_TWO_PI_I = 2j * math.pi


def _per_box(owner: np.ndarray, values: np.ndarray, boxes: int) -> list[complex]:
    """The sum of complex ``values`` over each box's entries (``owner``), in
    entry order."""
    real, imag = (np.bincount(owner, v, boxes).tolist() for v in (values.real, values.imag))
    return [complex(re, im) for re, im in zip(real, imag)]


def _contour_sums(edges: _Edges, boxes: list[_Box]) -> list[tuple[complex, complex, float]]:
    """Per box of ``boxes``: (s_0, s_1, error estimate of s_0) from
    ``_box_sums``, once each box's panels are integrated.

    Locally adaptive Gauss-Kronrod over the panels ``edges`` stores for
    each box: every panel has the 15-point Kronrod rule, and |K - G|
    against the embedded 7-point Gauss rule is its error estimate.  A round
    evaluates every new panel of every box together, one kernel call per
    _MAX_CALL_POINTS points of a sum (``_Edges.evaluate_panels``).  Each
    box is judged on its own: once its
    estimates sum below _WINDING_ERROR_TOL its integrals are done;
    otherwise each of its panels over its length's share of that tolerance
    is bisected, once for all the boxes that hold it, and the others are
    kept.  A box stops unconverged (error estimate at least
    _WINDING_ERROR_TOL) as soon as a panel's estimate (then inf) or first
    moment is not finite, when its next round would pass _PANEL_BUDGET
    times its base panels in all (the panels it starts with, and two per
    bisection), when a panel it would bisect has been bisected
    _MAX_BISECTIONS times, or when none of its panels is over its share.
    In the round it stops, a box keeps in ``panels`` the panels of that
    round, so its sums, its pieces and its higher power sums all start
    from them.  Nothing here tests how close a contour runs to a zero: a
    window is tested before it is counted (``_Together.window_count``),
    and a box whose contour runs through or near a zero is left to
    ``_judge_winding``, as its estimate does not converge or its winding
    sits near a half-integer.
    """
    n = len(boxes)
    sizes = [box.panels.size for box in boxes]
    owner = np.repeat(np.arange(n), sizes)
    panels = np.concatenate([box.panels for box in boxes])
    rects = [box.rect for box in boxes]
    # a panel's share of the tolerance is its share of its box's perimeter
    tol = 2.0 * math.pi * _WINDING_ERROR_TOL  # in integral units
    share = np.array([tol / (2.0 * (r.width + r.height)) for r in rects])
    middle = np.array([r.center for r in rects])
    base = [_base_count(r.width) + _base_count(r.height) for r in rects]
    budget = 2 * _PANEL_BUDGET * np.array(base)
    used = np.array(sizes, dtype=float)
    live = np.ones(n, dtype=bool)
    while True:
        edges.evaluate_panels()
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
        if not going.any():
            return _box_sums(edges, boxes, 2)
        live = going
        used += 2 * held
        # a panel two boxes hold is bisected once
        chosen = np.zeros(edges.size, dtype=bool)
        chosen[panels[split]] = True
        edges.bisect(np.flatnonzero(chosen))
        keep = going[owner]
        panels, owner = edges.resolve(panels[keep], owner[keep])
        sizes = np.bincount(owner, minlength=n).tolist()


def _box_sums(edges: _Edges, boxes: list[_Box], top: int) -> list[tuple[complex | float, ...]]:
    """Per box of ``boxes``: (s_0, ..., s_(top - 1), error estimate of s_0),
    where s_k = (1/2πi) ∮ u^k f'/f dp over the box's stored panels, each
    walked the box's counterclockwise way (``_Edges.walk``).

    u = (p - c) / r are the box's own coordinates (c its center, r its
    half-diagonal), so |u| <= 1 on its contour and s_k is the sum of u^k
    over its zeros, counted with multiplicity.  s_0 and s_1 come from the
    panels' integrals and first moments, s_2 and up from the Kronrod terms
    of their nodes, with no kernel call.  Each box is reduced on its own,
    in panel order, so its sums do not depend on the other boxes.  A box
    whose estimate is not finite gets (nan, ..., nan, inf).
    """
    n = len(boxes)
    panels, owner, signs = edges.walk(boxes)
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


def count_zeros(f: ExpPoly, rect: Rectangle) -> int:
    """Number of zeros of f inside ``rect``, counted with multiplicity.

    Locally adaptive Gauss-Kronrod quadrature of f'/f and of its first
    moment about the center of ``rect`` (see ``_contour_sums``); accepted
    once the summed error estimate is below _WINDING_ERROR_TOL and the
    value sits within _QUAD_TOL of a non-negative integer
    (``_judge_winding``).
    Raises BoundaryProximityError when the boundary runs too close to a
    zero (callers may inflate and retry) and QuadratureError when the
    first moment overflows float64, when no converged integer emerges
    within the work cap, or when the integer is one f cannot have: a
    rectangle of height h holds at most
    h * (beta_max - beta_min) / 2pi + len(terms) - 1 zeros (Polya).
    Raises InvalidInputError, before any kernel call, for a window out of
    float64's reach (``_check_reach``).
    The count is made in the search of ``_searched_together([f])``, the
    innermost block if it holds f, else a block of f alone
    (``_Together.window_count``), which keeps the counted window box for
    that search; what it returns or raises is the same either way.
    """
    with _searched_together([f]) as together:
        return together.window_count(f, rect).count


def _count_adaptive(
    edges: _Edges, boxes: list[_Box]
) -> list[int | QuadratureError | BoundaryProximityError]:
    """Per box of ``boxes``: its count, or the error that refuses it.

    All boxes are integrated in one ``_contour_sums`` batch and each is
    judged on its own by ``_judge_winding``.  Unlike a window
    (``_Together.window_count``), a box here has no boundary test: it is a
    piece of a counted box, and a zero near its cut shows in its estimate
    or its winding.
    """
    for box, sums in zip(boxes, _contour_sums(edges, boxes)):
        box.sums = sums
    return [_judge_winding(edges.polys[box.poly], box.rect, box.sums) for box in boxes]


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
    where f and each derivative up to f^(order) is within
    _NEWTON_REL_TARGET of its own term scale: near a multiple zero |f| is
    that small in a wide disc, and a zero of f^(order) alone may be no
    zero of f or of a lower derivative.
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


def _hankel_solve(
    s: np.ndarray, noise: np.ndarray
) -> list[tuple[list[complex], list[int]] | None]:
    """Per row i of ``s`` (rows of 2n sums each): the distinct points u_j
    and multiplicities m_j (positive integers, summing to n) with
    s[i, k] = sum_j m_j u_j^k for k < 2n, or None.

    The count d of distinct points is the numerical rank of the Hankel
    matrix H_0 = [s_(i+j)], i, j < n: the number of its singular values
    above n * ``noise[i]``, the error estimate of the quadrature that gave
    the row.  An error of at most that in every entry moves no singular
    value by more than that (Weyl), so a smaller one may be noise.
    The points are the eigenvalues of the pencil (H_1, H_0), H_1 = [s_(i+j+1)],
    restricted to the range of H_0 through its SVD (Kravanja, Sakurai and
    Van Barel, BIT 39, 1999).  The multiplicities solve the d x d
    Vandermonde system of s_0, ..., s_(d-1), and each must lie within 0.1
    of a positive integer.  A row whose sums are not finite or whose rank
    is 0 gives None.
    The rows are one LAPACK stack: one SVD call for all of them, then one
    pencil, eigenvalue and Vandermonde solve for the rows of each rank.
    Each matrix gets the bits of its own call (the Vandermonde matrix is
    built as ``np.vander`` builds it), so no row's solve depends on the
    others; but a stack that LAPACK cannot factor gives None for every row.
    """
    rows, n = len(s), s.shape[1] // 2
    out: list[tuple[list[complex], list[int]] | None] = [None] * rows
    where = list(range(rows))
    if not np.isfinite(s).all():
        where = np.flatnonzero(np.isfinite(s).all(axis=1)).tolist()
        s, noise = s[where], noise[where]
    hankel = np.add.outer(np.arange(n), np.arange(n))
    try:
        left, sigma, right = np.linalg.svd(s[:, hankel])
        ranks = (sigma > n * noise[:, None]).sum(axis=1).tolist()
        for d in set(ranks) - {0}:
            at = [i for i, r in enumerate(ranks) if r == d]
            u, w, v, sd = (x if len(at) == len(ranks) else x[at] for x in (left, sigma, right, s))
            # H_1 in C order: a product on a strided matrix can round otherwise
            pencil = (
                u[..., :d].conj().swapaxes(1, 2)
                @ sd.take(hankel + 1, axis=1)
                @ v[:, :d].conj().swapaxes(1, 2)
                / w[:, :d, None]
            )
            points = np.linalg.eigvals(pencil)
            # a huge point makes an infinite or nan multiplicity, which fails
            with np.errstate(over="ignore", invalid="ignore"):
                vander = np.empty_like(pencil)
                vander[..., 0] = 1
                vander[..., 1:] = points[..., None]
                np.multiply.accumulate(vander[..., 1:], axis=-1, out=vander[..., 1:])
                mult = np.linalg.solve(vander.swapaxes(1, 2), sd[:, :d, None])[..., 0]
                counts = np.rint(mult.real)
                near = (np.abs(mult - counts) <= 0.1).all(axis=1)
            solved = zip([where[i] for i in at], points.tolist(), counts.tolist(), near.tolist())
            for i, z, m, ok in solved:
                if ok and min(m) >= 1 and sum(m) == n:
                    out[i] = z, [int(c) for c in m]
    except np.linalg.LinAlgError:
        return [None] * rows
    return out


def _moment_zeros(
    edges: _Edges, boxes: list[_Box], sums: list[tuple[complex | float, ...]]
) -> list[list[Zero] | None]:
    """Per counted box of ``boxes``: its ``count`` zeros from its power
    ``sums`` (s_0, ..., s_(2 count - 1) or more, error estimate), or None.

    ``_hankel_solve`` gives their points u and multiplicities m from
    s_0, ..., s_(2 count - 1), the boxes of each count in one stack; each
    zero c + r u is polished by Newton on f^(m-1) as a leaf's is, the zeros
    of every solved box of one sum in one ``_newton_polish`` batch.  A
    box's zeros stand only if each is refined inside it and no two lie
    within _CLUSTER_DIAMETER; the multiplicities sum to ``count``, the
    winding that proved them.
    """
    pencils: list[tuple[list[complex], list[int]] | None] = [None] * len(boxes)
    for n in sorted({box.count for box in boxes}):
        rows = [i for i, box in enumerate(boxes) if box.count == n]
        solved = _hankel_solve(
            np.array([sums[i][: 2 * n] for i in rows]), np.array([sums[i][-1] for i in rows])
        )
        for i, pencil in zip(rows, solved):
            pencils[i] = pencil
    polished = {}
    for k in dict.fromkeys(box.poly for box in boxes):
        starts = [
            (box.rect.center + 0.5 * box.rect.diameter * u, box.rect, m - 1)
            for box, pencil in zip(boxes, pencils)
            if box.poly == k and pencil is not None
            for u, m in zip(*pencil)
        ]
        polished[k] = iter(_newton_polish(edges.polys[k], starts) if starts else [])
    out: list[list[Zero] | None] = []
    for box, pencil in zip(boxes, pencils):
        if pencil is None:
            out.append(None)
            continue
        # zip takes one polished zero per multiplicity, and no more
        zeros = [Zero(z, m) for m, (z, refined) in zip(pencil[1], polished[box.poly]) if refined]
        close = any(
            abs(a.location - b.location) <= _CLUSTER_DIAMETER
            for a, b in itertools.combinations(zeros, 2)
        )
        out.append(zeros if len(zeros) == len(pencil[1]) and not close else None)
    return out


def _cut_fractions(count: int, attempt: int) -> list[float]:
    """The fractions of its longer side at which a box of ``count`` zeros
    is cut on its try number ``attempt``: (j + a) / k for j = 1 ... k - 1,
    k = min(_MAX_PIECES, max(2, ceil(count / 3))) and a the offset
    ``_CUT_FRACTIONS[attempt]``."""
    k = min(_MAX_PIECES, max(2, math.ceil(count / 3)))
    return [(j + _CUT_FRACTIONS[attempt]) / k for j in range(1, k)]


def _isolate(edges: _Edges, windows: list[_Box | Exception]) -> list[ZeroSet | Exception]:
    """Per entry of ``windows``, a counted window box
    (``_Together.window_count``, all in the store ``edges``) or the error
    that refused that window: the window's ``ZeroSet`` (its zeros in
    ``ZeroSet`` order, the box's rect and count), or an error, the window's
    own or the first one that fails its sum's search.  No window, no
    search: ``_isolate(edges, [])`` is [].

    The sums are isolated together, in count rounds on the panels their
    windows were counted on, each round over the boxes of every sum.  A
    box of 2 to _MOMENT_ZEROS zeros is solved from its power sums
    (``_box_sums`` and ``_moment_zeros``, every such box of a round in one
    call, so all the zeros of one sum are polished together).  A box with
    more zeros, or whose solve fails, splits if it is wider than
    _CLUSTER_DIAMETER.  Each round counts in one ``_count_adaptive`` batch
    the pieces of every box being split: a box of n zeros is cut across
    its longer side into the k pieces of ``_cut_fractions``, a box new to
    the round with the first offset of _CUT_FRACTIONS, a box whose last
    try failed with the next.  Zeros of an exponential sum rise up
    vertical strips at nearly even spacing, so the equal pieces of a tall
    box hold about n / k zeros each, and most are solved in the next
    round.  The pieces are built on the panels their box was counted on
    (``_Edges.cut``), so each piece of contour is evaluated once in the
    whole search.  Pieces that all count must sum to their box's count and
    are the next round's new boxes; if one of them does not count, the
    whole box is tried again.  The largest piece is at most (1 + the
    largest |offset|) / k <= 0.65 of the cut side, as k >= 2, so two cuts
    in a row leave both sides at most 0.65 of it, and _CLUSTER_DIAMETER
    ends every search without a depth cap.

    The leaves are the boxes of one zero, the boxes no wider than
    _CLUSTER_DIAMETER and the boxes that no try splits.  A leaf of at least
    len(f.terms) zeros fails its sum in the round it forms, and so do
    pieces that lose zeros: that sum's boxes leave the rounds, and the
    other sums go on.  After the last round the leaves of each sum are
    polished in one ``_newton_polish`` batch, a leaf of m zeros by Newton
    of order m - 1 from the centroid of its own power sums
    (``_centroid``).  Then, leaf by leaf, a leaf of several zeros that
    Newton does not verify as one m-fold zero fails its sum, and so does an
    unrefined simple zero whose centroid lies outside its leaf.  A sum's
    boxes, solves and Newton batches are those of its search alone, so its
    result and the first error that fails it are too.
    """
    # a sum counted twice (zero_multiset_equal(f, f, ...)) is isolated once
    new = list({box.poly: box for box in windows if isinstance(box, _Box)}.values())
    zeros: list[list[Zero]] = [[] for _ in edges.polys]
    failed: dict[int, QuadratureError] = {}
    leaves = []
    retry = []

    def fail(box: _Box, message: str) -> None:
        failed.setdefault(box.poly, QuadratureError(message))

    def leaf(box: _Box) -> None:
        # a sum of t terms has no zero of multiplicity t or more: the
        # Vandermonde matrix of its distinct exponents is nonsingular
        if box.count >= len(edges.polys[box.poly].terms):
            fail(box, f"no subdivision of {box.rect} counts its {box.count} zeros")
        else:
            leaves.append(box)

    while True:
        new = [box for box in new if box.poly not in failed]
        split = []
        solvable = [box for box in new if 1 < box.count <= _MOMENT_ZEROS]
        if solvable:
            sums = _box_sums(edges, solvable, 2 * max(box.count for box in solvable))
            solved = iter(_moment_zeros(edges, solvable, sums))
        for box in new:
            solution = 1 < box.count <= _MOMENT_ZEROS and next(solved)
            if solution:
                zeros[box.poly] += solution
            elif box.count > 1 and box.rect.diameter > _CLUSTER_DIAMETER:
                split.append(box)
            elif box.count:
                leaf(box)
        # (box, the index of the cut offset to try)
        tries = [(box, k) for box, k in [(box, 0) for box in split] + retry if box.poly not in failed]
        if not tries:
            break
        cuts = [(box, box.rect.split(_cut_fractions(box.count, k))) for box, k in tries]
        pieces = edges.cut(cuts)
        counted = _count_adaptive(edges, pieces)
        new, retry = [], []
        ends = list(itertools.accumulate(len(rects) for _, rects in cuts))
        for (box, k), start, stop in zip(tries, [0] + ends, ends):
            counts = counted[start:stop]
            if not any(isinstance(n, Exception) for n in counts):
                if sum(counts) != box.count:
                    fail(box, f"subdivision of {box.rect} lost zeros: {counts} vs parent {box.count}")
                    continue
                for piece, n in zip(pieces[start:stop], counts):
                    piece.count = n
                    new.append(piece)
            elif k + 1 < len(_CUT_FRACTIONS):
                retry.append((box, k + 1))
            else:
                leaf(box)
    leaves = [box for box in leaves if box.poly not in failed]
    for k in dict.fromkeys(box.poly for box in leaves):
        own = [box for box in leaves if box.poly == k]
        starts = [(_centroid(box.rect, box.sums), box.rect, box.count - 1) for box in own]
        for box, (z, refined) in zip(own, _newton_polish(edges.polys[k], starts)):
            if box.count > 1 and not refined:
                fail(box, f"no subdivision of {box.rect} counts its {box.count} zeros")
                break
            if not box.rect.contains(z):
                fail(box, f"the centroid {z} of the zero counted in {box.rect} lies outside it")
                break
            zeros[k].append(Zero(z, box.count, refined))
    for own in zeros:
        # rounding Re keeps zeros on one vertical line in Im order despite last-bit noise
        own.sort(key=lambda z: (round(z.location.real, 9), z.location.imag))
    return [
        failed.get(box.poly) or ZeroSet(tuple(zeros[box.poly]), box.rect, box.count)
        if isinstance(box, _Box)
        else box
        for box in windows
    ]


def find_zeros(f: ExpPoly, rect: Rectangle) -> ZeroSet:
    """Locate all zeros of f inside ``rect`` with multiplicities.

    Every winding count (the window's and each box's) is accepted as in
    ``count_zeros``.  The window inflates by _INFLATION_FACTOR (up to
    _MAX_INFLATIONS times) when its boundary starts out too close to a
    zero or its count does not converge (``_counted_window``); the window
    actually used is recorded on the result.  Isolation works in count
    rounds (``_isolate``): a box is cut across its longer side into the
    pieces ``_cut_fractions`` gives, with each offset of _CUT_FRACTIONS in
    turn until every piece counts, and all boxes split in a round share
    each quadrature round of its batch, so the search makes one kernel
    call per quadrature round in which it has new panels, not one per
    box.  The search keeps every panel it evaluates (``_Edges``): a piece
    takes its box's panels within its span and shares each cut with its
    neighbour, so each piece of contour is evaluated once.  f is evaluated
    only on contours and in Newton.  A box of 2 to _MOMENT_ZEROS zeros is
    solved from power sums reduced from its stored panels
    (``_moment_zeros``) and splits only if a check of that solve fails.  A
    box of one zero, a box no wider than _CLUSTER_DIAMETER and a box that
    none of its cuts can count are leaves.
    Every zero, solved or a leaf's, is polished by Newton on f^(m-1) to a
    point inside its box where f, f', ..., f^(m-1) are each within
    _NEWTON_REL_TARGET of their own term scale.  The zeros of all boxes
    solved in a count round are polished together, and all leaves
    together after the last round, one kernel call per Newton iteration
    and order, not per zero; a box whose solve fails has polished all of
    its zeros before it splits.  A simple zero that does not polish is
    reported at its box's centroid with ``refined=False``, and a centroid
    outside the box raises QuadratureError; so does a leaf of several
    zeros that does not polish to one m-fold zero.  A window out of
    float64's reach raises InvalidInputError, as in ``count_zeros``.
    The search is that of ``_searched_together([f])``: the innermost block
    if it holds f, run with those of the block's other sums, else a block
    of f alone (``_Together.zero_set``); what it returns or raises is the
    same either way.
    """
    with _searched_together([f]) as together:
        return together.zero_set(f, rect)


def _stored(result):
    """A stored search ``result``, or raises it if it is an error."""
    if isinstance(result, Exception):
        raise result
    return result


class _Together:
    """The zero searches of the sums ``polys`` in one store (``edges``):
    by (sum, window), their counted window boxes (``counts``) and zero
    sets (``found``), or the errors that refuse them, as they are made;
    ``_stored`` reads them back.

    A sum's count or zero set, or the error that fails it, is the one its
    own search gives: only the work is shared.
    """

    def __init__(self, polys: list[ExpPoly]) -> None:
        self.polys = tuple(dict.fromkeys(polys))
        self.edges = _Edges(*self.polys)
        self.counts: dict = {}
        self.found: dict = {}
        # the sums not counted yet
        self.fresh = set(range(len(self.polys)))

    def window_count(self, f: ExpPoly, rect: Rectangle) -> _Box:
        """The counted box of f over ``rect``, or raises the error that
        refuses it.  The first count of a sum counts every sum not counted
        yet over ``rect``, a later one (an inflated window) its sum alone.

        This is the one boundary test of the search: the base panels of
        the batch's windows are evaluated first, and a window on whose
        nodes the least relative |f| (``_Edges.evaluate_panels``) is below
        _BOUNDARY_REL_MIN is refused with BoundaryProximityError, so that
        ``_counted_window`` inflates it.  The others are integrated in one
        ``_contour_sums`` batch, none if all are refused, each judged on
        its own by ``_judge_winding``.
        """
        k = self.polys.index(f)
        if (k, rect) not in self.counts:
            _check_reach("window.re", rect.re_min, rect.re_max)
            _check_reach("window.im", rect.im_min, rect.im_max)
            batch = sorted(self.fresh) if k in self.fresh else [k]
            self.fresh.difference_update(batch)
            boxes = [self.edges.outline(rect, i) for i in batch]
            least = self.edges.evaluate_panels(True)
            # a nan reading passes: its estimate does not converge
            clear = [box for box in boxes if not least[box.poly] < _BOUNDARY_REL_MIN]
            for box, sums in zip(clear, _contour_sums(self.edges, clear) if clear else []):
                counted = _judge_winding(self.polys[box.poly], rect, sums)
                if not isinstance(counted, Exception):
                    box.sums, box.count, counted = sums, counted, box
                self.counts[box.poly, rect] = counted
            for i in set(batch) - {box.poly for box in clear}:
                self.counts[i, rect] = BoundaryProximityError(
                    f"contour of {rect} passes within relative magnitude "
                    f"{least[i]:.2e} of a zero; inflate the window"
                )
        return _stored(self.counts[k, rect])

    def zero_set(self, f: ExpPoly, rect: Rectangle) -> ZeroSet:
        """``find_zeros(f, rect)``: the first call over ``rect`` searches
        every sum over it, each window counted and inflated for its sum
        alone (``_counted_window``, the first tries in one batch) and every
        sum whose window counts isolated in one search (``_isolate``).  It
        stores ``_isolate``'s record of each sum as it comes, a ``ZeroSet``
        or the error that refused its window or failed its search."""
        if (f, rect) not in self.found:
            counted: list = []
            for g in self.polys:
                try:
                    counted.append(self.window_count(g, _counted_window((g,), rect)[0]))
                except Exception as error:  # raised when the sum's result is read
                    counted.append(error)
            for g, found in zip(self.polys, _isolate(self.edges, counted)):
                self.found[g, rect] = found
        return _stored(self.found[f, rect])


# The innermost _searched_together block
_TOGETHER: contextvars.ContextVar[_Together | None] = contextvars.ContextVar(
    "_TOGETHER", default=None
)


@contextlib.contextmanager
def _searched_together(polys: list[ExpPoly]) -> Iterator[_Together]:
    """Within the block the zero searches of ``polys`` share their work.

    ``count_zeros`` and ``find_zeros`` of one of them read its result from
    the block's searches (``_Together``), which count the first windows of
    all of them in one batch and isolate their zeros in one search; each
    returns or raises what it does outside the block.  This is the one way
    into a search: a block asked for sums that the innermost block already
    holds is that block, and any other opens a new one (``count_zeros`` and
    ``find_zeros`` ask for their own sum alone).
    """
    together = _TOGETHER.get()
    if together is not None and set(polys) <= set(together.polys):
        yield together
        return
    together = _Together(polys)
    token = _TOGETHER.set(together)
    try:
        yield together
    finally:
        _TOGETHER.reset(token)


def _counted_window(polys: tuple[ExpPoly, ...], rect: Rectangle) -> tuple[Rectangle, list[int]]:
    """``rect`` or its first inflation over which every sum counts cleanly,
    and the sums' counts over it.

    A count that does not converge inflates too: a zero on the edge can
    slip between the first round's check nodes.  The last of
    _MAX_INFLATIONS + 1 tries raises.  Inside a ``_searched_together``
    block the first ``count_zeros`` counts the windows of all the block's
    sums in one batch (``_Together.window_count``).
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
    are isolated, all in one search (``_isolate``); the first of them whose
    search fails raises its error (``_stored``); otherwise each pair's
    ``ZeroSet`` zeros are matched.
    """
    with _searched_together(polys) as together:
        window, totals = _counted_window(tuple(polys), rect)
        shared = [i for i, n in enumerate(totals) if totals.count(n) > 1]
        boxes = [together.window_count(polys[i], window) for i in shared]
        zero_sets = dict(zip(shared, map(_stored, _isolate(together.edges, boxes))))
    return [
        totals[i] == totals[j] and _zeros_match(zero_sets[i].zeros, zero_sets[j].zeros)
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


# Chebyshev-Lobatto points on [1, 8]; spread enough that inequivalent
# vector pairs cannot hide behind a single a * exp(beta p) factor.
_RATIO_SAMPLES = _read_only([4.5 - 3.5 * math.cos(k * math.pi / 15) for k in range(16)])
# sum / size: the bits of mean() without its dispatch
_RATIO_CENTERED = _read_only(
    _RATIO_SAMPLES - np.add.reduce(_RATIO_SAMPLES) / _RATIO_SAMPLES.size
)
_RATIO_SPREAD = _RATIO_CENTERED @ _RATIO_CENTERED


def ratio_factor(f: ExpPoly, g: ExpPoly) -> RatioFit:
    """Fit f(p) = a * exp(beta p) * g(p) over the 16 Chebyshev-Lobatto
    points on [1, 8].

    a = f(0)/g(0) (exact: the ratio of term-count totals), beta the
    least-squares slope of ln(f/(a g)), residual the worst relative
    mismatch on the samples.  When f and g come from equivalent vectors
    with scale ratio c this returns a = 1, beta = ln c, residual ~ 0.
    """
    return _ratio_fits([f, g], [(0, 1)])[0]


def _ratio_fits(polys: list[ExpPoly], pairs: list[tuple[int, int]]) -> list[RatioFit]:
    """``ratio_factor(polys[i], polys[j])`` for every (i, j) in ``pairs``.

    Each sum is evaluated once: the sums of one term count stack into one
    ``_chunked_parts`` call (cut by ``_stacks``).  On the real axis a sum's
    largest term is e^M times a count of at least 1, so S >= 1 and
    M + log(S) is read without a singular test.  The fits are array
    arithmetic over a (pairs x samples) block, each row reduced on its own
    (no matmul), so a pair's fit does not depend on the other pairs in the
    batch.
    """
    if not pairs:
        return []
    ps = _RATIO_SAMPLES
    logs = np.empty((len(polys), ps.size))
    for _, rows in _stacks([len(f.terms) for f in polys], ps.size):
        m_val, s_val, _, _ = _chunked_parts(_stack([polys[i] for i in rows]), ps)
        logs[rows] = m_val + np.log(s_val)
    fs, gs = np.array(pairs).T
    degrees = np.array([f.degree for f in polys])
    a = (degrees[fs] / degrees[gs]).tolist()
    # math.log, not np.log, which may round the last bit differently
    log_of = {x: math.log(x) for x in set(a)}
    log_f = logs[fs]
    diffs = log_f - logs[gs] - np.array([log_of[x] for x in a])[:, None]
    means = np.add.reduce(diffs, axis=1) / ps.size
    slope = np.add.reduce(_RATIO_CENTERED * (diffs - means[:, None]), axis=1)
    beta = slope / _RATIO_SPREAD
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
