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

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BoundaryProximityError,
    InvalidInputError,
    QuadratureError,
    SingularEvaluationError,
)
from .vectors import RealVector

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
# Boxes narrower than this that still count several zeros are one cluster.
_CLUSTER_DIAMETER = 1e-6
# A box whose splits all fail is one cluster only up to this diameter.
_MAX_CLUSTER_DIAMETER = 1e-4
_MAX_DEPTH = 64
# Newton accepts a zero once |f| <= this fraction of the local term scale.
_NEWTON_REL_TARGET = 1e-12
_MAX_NEWTON_ITERS = 60
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
        cx = 0.5 * (self.re_min + self.re_max)
        cy = 0.5 * (self.im_min + self.im_max)
        hw = 0.5 * self.width * factor
        hh = 0.5 * self.height * factor
        return Rectangle(cx - hw, cx + hw, cy - hh, cy + hh)

    def split(self, x: float, y: float) -> tuple["Rectangle", ...]:
        """Quadrisect at the interior point (x, y)."""
        return (
            Rectangle(self.re_min, x, self.im_min, y),
            Rectangle(x, self.re_max, self.im_min, y),
            Rectangle(self.re_min, x, y, self.im_max),
            Rectangle(x, self.re_max, y, self.im_max),
        )


DEFAULT_WINDOW = Rectangle(-1.0, 1.0, 0.5, 40.0)


@dataclass(frozen=True)
class Zero:
    """One isolated zero (or unresolved cluster) with its multiplicity.

    ``refined`` is False when Newton polishing did not converge inside the
    box that counted the zero and the location is that box's contour
    centroid only (always the case for clusters).
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
    f: ExpPoly, ps: complex | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(M, S, S', bound) at the points ``ps`` (a scalar is one point).

    f = exp(M) * S and f' = exp(M) * S'.  M is the largest real part over
    terms of exponent * p, so no summand of S exceeds its coefficient and
    nothing overflows while |M| < ~709.  bound = sum_j c_j |exp(beta_j p - M)|.
    """
    ps = np.asarray(ps).reshape(-1)
    betas = f.exponents
    re = ps.real
    m_val = np.maximum(betas[0] * re, betas[-1] * re)
    weighted = f.multiplicities[:, None] * np.exp(np.multiply.outer(betas, ps) - m_val)
    s_val = np.add.reduce(weighted)
    ds_val = np.add.reduce(betas[:, None] * weighted)
    bound = np.add.reduce(np.abs(weighted))
    return m_val, s_val, ds_val, bound


def _log(
    f: ExpPoly, ps: complex | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(M + log(S), S, S') at ``ps``; SingularEvaluationError where |S| <= 1e-12 * degree."""
    m_val, s_val, ds_val, _ = _parts(f, ps)
    singular = np.abs(s_val) <= 1e-12 * f.degree
    if singular.any():
        p = np.asarray(ps).reshape(-1)[singular][0].item()
        raise SingularEvaluationError(f"f is numerically zero at p={p!r}")
    return m_val + np.log(s_val), s_val, ds_val


def evaluate(f: ExpPoly, p: complex) -> complex:
    """f(p), overflow-safe for |exponent * Re p| <= 700."""
    m_val, s_val, _, _ = _parts(f, complex(p))
    return complex(np.exp(m_val[0]) * s_val[0])


def evaluate_log(f: ExpPoly, p: complex) -> complex:
    """Principal log of f(p), imaginary part in (-pi, pi].

    Computed as M + log(S) with the dominant real exponent factored out, so
    large |Re(exponent * p)| never overflows.  Raises SingularEvaluationError
    when |f(p)| falls below 1e-12 of the local term scale.
    """
    return complex(_log(f, complex(p))[0][0])


def log_with_derivative(f: ExpPoly, p: complex) -> tuple[complex, complex]:
    """(evaluate_log(f, p), f'(p)/f(p)) from one kernel call; singular as evaluate_log."""
    logs, s_val, ds_val = _log(f, complex(p))
    return complex(logs[0]), complex(ds_val[0] / s_val[0])


def log_derivative(f: ExpPoly, p: complex) -> complex:
    """f'(p)/f(p); the exp(M) factors cancel, so this never overflows.
    Singular where evaluate_log is."""
    return log_with_derivative(f, p)[1]


def relative_magnitude(f: ExpPoly, p: complex) -> float:
    """|f(p)| divided by the local term scale sum_j c_j exp(beta_j Re p); in [0, 1]."""
    _, s_val, _, bound = _parts(f, complex(p))
    return float(abs(s_val[0]) / bound[0])


# ---------------------------------------------------------------------------
# Contour quadrature over rectangle boundaries
# ---------------------------------------------------------------------------


def _base_panels(length: float) -> int:
    return max(4, min(160, math.ceil(1.25 * length)))


def _contour_panels(rect: Rectangle) -> tuple[np.ndarray, np.ndarray]:
    """(centers, half-steps) of the base panels, counterclockwise around ``rect``."""
    corners = rect.corners
    centers = []
    halves = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        panels = _base_panels(abs(b - a))
        half = (b - a) / (2 * panels)
        centers.append(a + (2 * np.arange(panels) + 1) * half)
        halves.append(np.full(panels, half))
    return np.concatenate(centers), np.concatenate(halves)


def _contour_sums(
    f: ExpPoly, rect: Rectangle, check_boundary: bool
) -> tuple[complex, complex, float]:
    """(1/2πi) ∮ f'/f dp, (1/2πi) ∮ p f'/f dp and the error estimate of the first.

    Locally adaptive Gauss-Kronrod: every panel gets the 15-point Kronrod
    rule, and |K - G| against the embedded 7-point Gauss rule is its error
    estimate.  A round evaluates every pending panel in one kernel call.
    Once the estimates sum below _WINDING_ERROR_TOL the integrals are done;
    otherwise each panel over its length's share of that tolerance is
    bisected and the others are kept.  The sums return unconverged (error
    estimate at least _WINDING_ERROR_TOL) as soon as a panel's estimate
    (then inf) or moment is not finite, when the next round would pass
    _PANEL_BUDGET times the base panels in all, or once a panel has been
    bisected _MAX_BISECTIONS times.  ``check_boundary`` applies the
    relative-|f| test to the first round's nodes.
    """
    centers, halves = _contour_panels(rect)
    budget = _PANEL_BUDGET * len(centers)
    used = 0
    tol = 2.0 * math.pi * _WINDING_ERROR_TOL  # in integral units
    w0 = w1 = 0j
    err = 0.0
    bisections = 0
    while True:
        used += len(centers)
        pts = centers[:, None] + halves[:, None] * _KRONROD_NODES
        _, s_val, ds_val, bound = _parts(f, pts.ravel())
        if check_boundary and bisections == 0:
            rel_min = float(np.min(np.abs(s_val) / bound))
            if rel_min < _BOUNDARY_REL_MIN:
                raise BoundaryProximityError(
                    f"contour of {rect} passes within relative magnitude "
                    f"{rel_min:.2e} of a zero; inflate the window"
                )
        integrand = (ds_val / s_val).reshape(pts.shape)
        k0 = halves * (integrand * _KRONROD_WEIGHTS).sum(axis=1)
        e0 = np.abs(halves * (integrand * (_KRONROD_WEIGHTS - _GAUSS_WEIGHTS)).sum(axis=1))
        # a panel's share of the tolerance is its share of the perimeter
        pending = e0 > tol * np.abs(halves) / (rect.width + rect.height)
        # far from the origin the moment can overflow; _count_adaptive refuses it
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = halves * (pts * integrand * _KRONROD_WEIGHTS).sum(axis=1)
            total_err = err + float(e0.sum())
            if not math.isfinite(total_err):
                return complex(math.nan), complex(math.nan), math.inf
            if (
                total_err < tol
                or not np.isfinite(k1).all()
                or bisections == _MAX_BISECTIONS
                or used + 2 * int(pending.sum()) > budget
            ):
                two_pi_i = 2j * math.pi
                w0 += complex(k0.sum())
                w1 += complex(k1.sum())
                return w0 / two_pi_i, w1 / two_pi_i, total_err / (2.0 * math.pi)
            done = ~pending
            w0 += complex(k0[done].sum())
            w1 += complex(k1[done].sum())
            err += float(e0[done].sum())
        halves = 0.5 * halves[pending]
        centers = np.concatenate((centers[pending] - halves, centers[pending] + halves))
        halves = np.concatenate((halves, halves))
        bisections += 1


def count_zeros(f: ExpPoly, rect: Rectangle) -> int:
    """Number of zeros of f inside ``rect``, counted with multiplicity.

    Locally adaptive Gauss-Kronrod quadrature of f'/f (see
    ``_contour_sums``); accepted once the summed error estimate is below
    1e-4 and the value sits within 1e-3 of a non-negative integer.
    Raises BoundaryProximityError when the boundary runs too close to a
    zero (callers may inflate and retry) and QuadratureError when no
    converged integer emerges within the work cap, or when the integer is
    one f cannot have: a rectangle of height h holds at most
    h * (beta_max - beta_min) / 2pi + len(terms) - 1 zeros (Polya).
    """
    count, _ = _count_adaptive(f, rect, check_boundary=True)
    return count


def _count_adaptive(f: ExpPoly, rect: Rectangle, check_boundary: bool) -> tuple[int, complex]:
    spread = f.exponents[-1] - f.exponents[0]
    max_count = rect.height * spread / (2.0 * math.pi) + len(f.terms)
    w0, w1, err = _contour_sums(f, rect, check_boundary)
    if math.isfinite(err):
        # an overflowing moment leaves the winding noise, so it is refused first
        if not (math.isfinite(w1.real) and math.isfinite(w1.imag)):
            raise QuadratureError(f"first moment over {rect} overflows float64")
        n = round(w0.real)
        if abs(n) >= max_count:
            raise QuadratureError(
                f"winding over {rect} came to {w0.real:.4g}, but f has "
                f"fewer than {max_count:.4g} zeros there"
            )
        if err < _WINDING_ERROR_TOL and n >= 0 and abs(w0 - n) < _QUAD_TOL:
            return n, w1
        # A winding near a half-integer means a zero sits on the contour
        # itself; on an outer window that calls for inflation.
        if abs(w0 - (math.floor(w0.real) + 0.5)) < _QUAD_TOL:
            if check_boundary:
                raise BoundaryProximityError(
                    f"winding over {rect} came to {w0.real:.4f}: "
                    "a zero lies on the contour"
                )
            raise QuadratureError(f"split contour of {rect} runs through a zero")
    raise QuadratureError(
        f"winding integral over {rect} did not converge on an integer "
        f"(value {w0}, error estimate {err:.2e})"
    )


def _cluster_locate(f: ExpPoly, rect: Rectangle, count: int, moment: complex) -> complex:
    """Centroid of the zero cluster filling ``rect``, whose count gave ``moment``.

    The moment integral over a box of the cluster's own (tiny) scale drowns
    in cancellation noise, so widen to an enclosing square, shrinking from a
    comfortable size until the zero count over it matches: that box holds
    exactly this cluster and its contour is far enough out for a clean
    centroid.  Without such a box the centroid is ``rect``'s own moment.
    """
    cx = 0.5 * (rect.re_min + rect.re_max)
    cy = 0.5 * (rect.im_min + rect.im_max)
    min_half = 0.5 * max(rect.width, rect.height)
    h = max(0.06, 1.5 * min_half)
    while h >= min_half:
        box = Rectangle(cx - h, cx + h, cy - h, cy + h)
        try:
            n, w1 = _count_adaptive(f, box, check_boundary=False)
        except QuadratureError:
            n = -1
        if n == count:
            return w1 / count
        h /= 2.0
    return moment / count


def _newton_polish(f: ExpPoly, z0: complex, rect: Rectangle) -> tuple[complex, bool]:
    """Refine a simple-zero estimate inside ``rect``; else keep the contour value."""
    z = z0
    reach = 2.0 * max(rect.width, rect.height)
    converged = False
    for _ in range(_MAX_NEWTON_ITERS):
        _, s_val, ds_val, bound = _parts(f, z)
        s = complex(s_val[0])
        ds = complex(ds_val[0])
        if abs(s) <= _NEWTON_REL_TARGET * float(bound[0]):
            converged = True
            break
        if ds == 0 or not (math.isfinite(s.real) and math.isfinite(s.imag)):
            break
        step = s / ds
        z_new = z - step
        if abs(z_new - z0) > reach:
            break
        z = z_new
        if abs(step) <= 1e-17 * max(1.0, abs(z)):
            break
    # a point outside the box that counted the zero is some other zero
    if rect.contains(z) and (converged or relative_magnitude(f, z) <= _NEWTON_REL_TARGET):
        return z, True
    return z0, False


def _ranked_split_lines(
    f: ExpPoly, lo: float, hi: float, cross_lo: float, cross_hi: float, vertical: bool
) -> list[float]:
    """Candidate split coordinates in (lo, hi), best zero clearance first.

    Samples |f| (relative to the term scale) along each candidate
    full-length line and ranks by the minimum: lines running near a zero
    sort last.  No hard cutoff; the quadrature convergence test is the
    final arbiter.
    """
    fractions = np.array((0.5, 0.45, 0.55, 0.4, 0.6, 0.35, 0.65, 0.3, 0.7))
    coords = lo + fractions * (hi - lo)
    cross = np.linspace(cross_lo, cross_hi, 65)
    lines = coords[:, None] + 1j * cross if vertical else cross + 1j * coords[:, None]
    _, s_val, _, bound = _parts(f, lines.ravel())
    rel = (np.abs(s_val) / bound).reshape(lines.shape).min(axis=1)
    return [coord for _, coord in sorted(zip(rel.tolist(), coords.tolist()), reverse=True)]


def _isolate(
    f: ExpPoly, rect: Rectangle, count: int, moment: complex | None, depth: int
) -> list[Zero]:
    """The ``count`` zeros in ``rect``; ``moment`` is the first moment its count gave.

    Each child box takes count and moment from one integration, so no box is
    integrated twice.  Only the outer window, counted through ``count_zeros``,
    comes without a moment (None); a leaf window integrates once more for it.
    """
    if count == 0:
        return []
    if count > 1 and rect.diameter > _CLUSTER_DIAMETER and depth < _MAX_DEPTH:
        xs = _ranked_split_lines(
            f, rect.re_min, rect.re_max, rect.im_min, rect.im_max, True
        )
        ys = _ranked_split_lines(
            f, rect.im_min, rect.im_max, rect.re_min, rect.re_max, False
        )
        for x, y in zip(xs[:3], ys[:3]):
            try:
                quads = rect.split(x, y)
                counted = [_count_adaptive(f, q, check_boundary=False) for q in quads]
            except QuadratureError:
                continue
            counts = [n for n, _ in counted]
            if sum(counts) != count:
                raise QuadratureError(
                    f"subdivision of {rect} lost zeros: {counts} vs parent {count}"
                )
            found: list[Zero] = []
            for q, (n, w1) in zip(quads, counted):
                found.extend(_isolate(f, q, n, w1, depth + 1))
            return found
        # No subdivision counted: the zeros are too tightly packed for
        # contour work at this scale.  A small box is one cluster (for a
        # true multiple zero the relocated centroid is exact); a larger one
        # is a failed search, not a multiple zero.
        if rect.diameter > _MAX_CLUSTER_DIAMETER:
            raise QuadratureError(
                f"no subdivision of {rect} counts its {count} zeros"
            )
    if moment is None:
        _, moment = _count_adaptive(f, rect, check_boundary=False)
    if count == 1:
        z, refined = _newton_polish(f, moment, rect)
        return [Zero(z, 1, refined)]
    return [Zero(_cluster_locate(f, rect, count, moment), count, False)]


def find_zeros(f: ExpPoly, rect: Rectangle) -> ZeroSet:
    """Locate all zeros of f inside ``rect`` with multiplicities.

    Every winding count (the window's and each box's) is accepted as in
    ``count_zeros``.  The window inflates by small factors (up to
    ``_MAX_INFLATIONS`` times) when its boundary starts out too close to a
    zero or its count does not converge; the window actually used is
    recorded on the result.  Simple zeros are Newton polished, from their
    box's first moment, to |f(z)| <= 1e-12 of the local term scale inside
    the box that counted them.  A box of diameter at most 1e-6 that counts
    several zeros, or one of at most 1e-4 that no split can count, is
    reported as one zero with summed multiplicity and ``refined=False``; a
    wider box that no split can count raises QuadratureError.
    """
    window, (total,) = _counted_window((f,), rect)
    return _zero_set(f, window, total)


def _zero_set(f: ExpPoly, window: Rectangle, total: int) -> ZeroSet:
    """Isolate the ``total`` zeros already counted over ``window``."""
    zeros = _isolate(f, window, total, None, 0)
    # rounding Re keeps zeros on one vertical line in Im order despite last-bit noise
    zeros.sort(key=lambda z: (round(z.location.real, 9), z.location.imag))
    return ZeroSet(tuple(zeros), window, total)


def _counted_window(polys: tuple[ExpPoly, ...], rect: Rectangle) -> tuple[Rectangle, list[int]]:
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
    zero_sets = [
        _zero_set(f, window, n).zeros if totals.count(n) > 1 else None
        for f, n in zip(polys, totals)
    ]
    return [
        totals[i] == totals[j] and _zeros_match(zero_sets[i], zero_sets[j])
        for i in range(len(polys))
        for j in range(i + 1, len(polys))
    ]


def _zeros_match(zf: tuple[Zero, ...], zg: tuple[Zero, ...]) -> bool:
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

    Each sum is evaluated once; the fits are array arithmetic over a
    (pairs x samples) block, each row reduced on its own (no matmul), so a
    pair's fit does not depend on the other pairs in the batch.
    """
    if not pairs:
        return []
    ps = np.array(_DEFAULT_RATIO_SAMPLES if sample_ps is None else sample_ps, dtype=float)
    if len(set(ps.tolist())) < 2:
        raise InvalidInputError("need at least two distinct sample points")
    logs = np.array([_log(f, ps)[0] for f in polys])
    fs, gs = [i for i, _ in pairs], [j for _, j in pairs]
    a = [polys[i].degree / polys[j].degree for i, j in pairs]
    log_f = logs[fs]
    diffs = log_f - logs[gs] - np.array([math.log(x) for x in a])[:, None]
    centered = ps - ps.mean()
    slope = np.add.reduce(centered * (diffs - diffs.mean(axis=1)[:, None]), axis=1)
    beta = slope / (centered @ centered)
    w = diffs - beta[:, None] * ps  # log of f / (a exp(beta p) g)
    # |f - a exp(beta p) g| / max(1, |f|) = |1 - exp(-w)| * min(1, |f|)
    mismatch = np.abs(1.0 - np.exp(np.minimum(-w, 700.0)))
    mismatch[-w > 700] = math.inf
    damp = np.exp(np.minimum(log_f, 0.0))
    # fmax skips the NaN of inf * 0 where |f| underflows
    residual = np.fmax.reduce(mismatch * damp, axis=1, initial=0.0)
    return [RatioFit(x, float(b), float(r)) for x, b, r in zip(a, beta, residual)]
