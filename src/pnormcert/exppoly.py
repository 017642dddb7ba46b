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
# A box no wider than this is not split: its zeros must be one multiple zero.
_CLUSTER_DIAMETER = 1e-6
# Newton accepts a zero once |f| <= this fraction of the local term scale.
_NEWTON_REL_TARGET = 1e-12
_MAX_NEWTON_ITERS = 60
# Points one kernel call may take, so its memory stays at terms x this.
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
    """One isolated zero with its multiplicity.

    ``refined`` is True when Newton on f^(multiplicity - 1) ended inside the
    box that counted the zero, where f and each derivative up to that one
    is <= 1e-12 of its own term scale.
    Only a simple zero can be unrefined; its location is then that box's
    contour centroid.
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
    f: ExpPoly, ps: complex | np.ndarray, order: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(M, S, S', bound) of the derivative f^(order) at the points ``ps`` (a
    scalar is one point).

    f^(order) = exp(M) * S and f^(order+1) = exp(M) * S'.  M is the largest
    real part over terms of exponent * p, so no summand of S exceeds its
    coefficient c_j * beta_j^order and nothing overflows while |M| < ~709.
    bound = sum_j |c_j * beta_j^order * exp(beta_j p - M)|.
    """
    ps = np.asarray(ps).reshape(-1)
    betas = f.exponents
    re = ps.real
    m_val = np.maximum(betas[0] * re, betas[-1] * re)
    coeffs = f.multiplicities * betas**order if order else f.multiplicities
    weighted = coeffs[:, None] * np.exp(np.multiply.outer(betas, ps) - m_val)
    s_val = np.add.reduce(weighted)
    ds_val = np.add.reduce(betas[:, None] * weighted)
    bound = np.add.reduce(np.abs(weighted))
    return m_val, s_val, ds_val, bound


def _chunked_parts(
    f: ExpPoly, ps: complex | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``_parts`` at ``ps``, one kernel call per _MAX_CALL_POINTS points; the
    kernel is elementwise, so the chunks change no value."""
    ps = np.asarray(ps).reshape(-1)
    if ps.size <= _MAX_CALL_POINTS:
        return _parts(f, ps)
    chunks = [
        _parts(f, ps[lo : lo + _MAX_CALL_POINTS]) for lo in range(0, ps.size, _MAX_CALL_POINTS)
    ]
    return tuple(np.concatenate(part) for part in zip(*chunks))


def _log(
    f: ExpPoly, ps: complex | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(M + log(S), S, S') at ``ps``; SingularEvaluationError where |S| <= 1e-12 * degree,
    naming the first such point."""
    m_val, s_val, ds_val, _ = _chunked_parts(f, ps)
    singular = np.abs(s_val) <= 1e-12 * f.degree
    if singular.any():
        p = np.asarray(ps).reshape(-1)[singular][0].item()
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
    when |f(p)| falls below 1e-12 of the local term scale.
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


def _contour_panels(
    rects: list[Rectangle],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(centers, half-steps, owning box) of the base panels of every box, and
    each box's base panel count.

    The panels run counterclockwise around each box, box after box.  An edge
    of length L gets max(4, min(160, ceil(1.25 L))) equal panels.
    """
    # the edges' lengths; their counterclockwise steps are these times 1, 1j, -1, -1j
    lengths = np.array([(r.width, r.height, r.width, r.height) for r in rects])
    panels = np.ceil(1.25 * lengths).clip(4, 160).astype(np.intp)
    counts = panels.ravel()
    halves = np.repeat((lengths / (2 * panels) * (1, 1j, -1, -1j)).ravel(), counts)
    starts = np.repeat(np.array([r.corners for r in rects]).ravel(), counts)
    index = np.arange(halves.size) - np.repeat(np.cumsum(counts) - counts, counts)
    base = panels.sum(axis=1)
    return starts + (2 * index + 1) * halves, halves, np.repeat(np.arange(len(rects)), base), base


def _contour_sums(
    f: ExpPoly, rects: list[Rectangle], check_boundary: bool
) -> list[tuple[complex, complex, float]]:
    """Per box of ``rects``: (1/2πi) ∮ f'/f dp, (1/2πi) ∮ p f'/f dp and the
    error estimate of the first.

    Locally adaptive Gauss-Kronrod: every panel gets the 15-point Kronrod
    rule, and |K - G| against the embedded 7-point Gauss rule is its error
    estimate.  A round evaluates every pending panel of every box together,
    one kernel call per _MAX_CALL_POINTS points.  Each box is judged on its
    own: once its estimates sum below _WINDING_ERROR_TOL its integrals are
    done; otherwise each of its panels over its length's share of that
    tolerance is bisected and the others are kept.  A box stops unconverged
    (error estimate at least _WINDING_ERROR_TOL) as soon as a panel's
    estimate (then inf) or moment is not finite, when its next round would
    pass _PANEL_BUDGET times its base panels in all, once a panel has been
    bisected _MAX_BISECTIONS times, or when none of its panels is over its
    share, so the loop runs at most _MAX_BISECTIONS + 1 rounds.  Each box's
    channels accumulate in one array, read out once after the last round.
    A box's panels keep their order and its sums are reduced on their own,
    so its result does not depend on the other boxes in ``rects``.
    ``check_boundary`` is for a batch of one box (the outer count of
    ``count_zeros``): it applies the relative-|f| test to the first round's
    nodes and raises naming ``rects[0]``.
    """
    boxes = len(rects)
    centers, halves, owner, base = _contour_panels(rects)
    budget = _PANEL_BUDGET * base
    span = np.array([r.width + r.height for r in rects])
    tol = 2.0 * math.pi * _WINDING_ERROR_TOL  # in integral units
    # per box: Re and Im of the k0 and k1 sums and the error sum over its
    # done panels (all its panels once it stops), and its panels used
    acc = np.zeros((6, boxes))
    offsets = 2 * boxes * np.arange(7)[:, None]
    for bisections in range(_MAX_BISECTIONS + 1):
        pts = centers[:, None] + halves[:, None] * _KRONROD_NODES
        _, s_val, ds_val, bound = _chunked_parts(f, pts.ravel())
        if check_boundary and bisections == 0:
            rel_min = np.min(np.abs(s_val) / bound)  # a nan node makes it nan: no refusal
            if rel_min < _BOUNDARY_REL_MIN:
                raise BoundaryProximityError(
                    f"contour of {rects[0]} passes within relative magnitude "
                    f"{rel_min:.2e} of a zero; inflate the window"
                )
        integrand = (ds_val / s_val).reshape(pts.shape)
        k0 = halves * (integrand * _KRONROD_WEIGHTS).sum(axis=1)
        e0 = np.abs(halves * (integrand * (_KRONROD_WEIGHTS - _GAUSS_WEIGHTS)).sum(axis=1))
        # a panel's share of the tolerance is its share of its box's perimeter
        pending = e0 > tol * np.abs(halves) / span[owner]
        # far from the origin the moment can overflow; _judge_winding refuses it
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = halves * (pts * integrand * _KRONROD_WEIGHTS).sum(axis=1)
            # Each channel summed per box over its done and its pending
            # panels, in one np.bincount.  bincount adds in array order, so
            # a box's sums do not depend on the other boxes of the batch.
            channels = np.array(
                (k0.real, k0.imag, k1.real, k1.imag, e0, np.ones(e0.size), ~np.isfinite(k1))
            )
            per_box = np.bincount(
                (2 * owner + pending + offsets).ravel(), channels.ravel(), 14 * boxes
            )
            done, held = per_box.reshape(7, boxes, 2).transpose(2, 0, 1)
            acc += done[:6]
            acc[5] += held[5]
            total_err = acc[4] + held[4]
            going = (
                (tol <= total_err)
                & (total_err < math.inf)
                & (done[6] + held[6] == 0)
                & (held[5] > 0)
                & (acc[5] + 2 * held[5] <= budget)
                & (bisections < _MAX_BISECTIONS)
            )
        # A box that stops takes its pending panels too.  Once stopped it has
        # no panels, and adding +0.0 leaves acc (never -0.0) as it was.
        acc[:5, ~going] += held[:5, ~going]
        if not going.any():
            break
        keep = pending & going[owner]
        halves = 0.5 * halves[keep]
        centers = np.concatenate((centers[keep] - halves, centers[keep] + halves))
        halves = np.concatenate((halves, halves))
        owner = np.concatenate((owner[keep], owner[keep]))
    two_pi_i = 2j * math.pi
    return [
        (complex(k0r, k0i) / two_pi_i, complex(k1r, k1i) / two_pi_i, err / (2.0 * math.pi))
        if math.isfinite(err)
        else (complex(math.nan), complex(math.nan), math.inf)
        for k0r, k0i, k1r, k1i, err, _ in acc.T.tolist()
    ]


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
    counted = _judge_winding(f, rect, _contour_sums(f, [rect], True)[0])
    if isinstance(counted, Exception):
        raise counted
    return counted[0]


def _count_adaptive(
    f: ExpPoly, rects: list[Rectangle]
) -> list[tuple[int, complex] | QuadratureError | BoundaryProximityError]:
    """Per box of ``rects``: (count, first moment), or the error that refuses it.

    All boxes are integrated in one ``_contour_sums`` batch, without the
    boundary test, and each is judged on its own by ``_judge_winding``.
    """
    return [
        _judge_winding(f, rect, sums)
        for rect, sums in zip(rects, _contour_sums(f, rects, False))
    ]


def _judge_winding(
    f: ExpPoly, rect: Rectangle, sums: tuple[complex, complex, float]
) -> tuple[int, complex] | QuadratureError | BoundaryProximityError:
    """The count and first moment that the contour ``sums`` of one box give,
    or the error that refuses them."""
    w0, w1, err = sums
    spread = f.exponents[-1] - f.exponents[0]
    max_count = rect.height * spread / (2.0 * math.pi) + len(f.terms) - 1
    if math.isfinite(err):
        # an overflowing moment leaves the winding noise, so it is refused first
        if not (math.isfinite(w1.real) and math.isfinite(w1.imag)):
            return QuadratureError(f"first moment over {rect} overflows float64")
        n = round(w0.real)
        # the slack keeps a count that meets the bound from failing on rounding
        if abs(n) > max_count * (1.0 + 1e-9):
            return QuadratureError(
                f"winding over {rect} came to {w0.real:.4g}, but f has "
                f"at most {max_count:.4g} zeros there"
            )
        if err < _WINDING_ERROR_TOL and n >= 0 and abs(w0 - n) < _QUAD_TOL:
            return n, w1
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
    f: ExpPoly, z0: complex, rect: Rectangle, order: int = 0
) -> tuple[complex, bool]:
    """Refine the estimate ``z0`` of a zero of multiplicity order + 1 inside
    ``rect`` by Newton on f^(order), where that zero is simple; else keep ``z0``.

    A point is accepted only inside ``rect`` (outside it is some other zero)
    where f and each derivative up to f^(order) is within 1e-12 of its own
    term scale: near a multiple zero |f| is that small in a wide disc, and a
    zero of f^(order) alone may be no zero of f or of a lower derivative.
    For order >= 1 the first point that meets the test on f^(order) can lie
    ~1e-12 from the zero, so Newton takes one step more.
    """
    z = z0
    reach = 2.0 * max(rect.width, rect.height)
    converged = False
    for _ in range(_MAX_NEWTON_ITERS):
        _, s_val, ds_val, bound = _parts(f, z, order)
        s = complex(s_val[0])
        ds = complex(ds_val[0])
        if abs(s) <= _NEWTON_REL_TARGET * float(bound[0]):
            converged = True
            if order and ds != 0:
                # one step more, kept if it still meets the test inside rect
                z_new = z - s / ds
                _, s_val, _, bound = _parts(f, z_new, order)
                if rect.contains(z_new) and abs(s_val[0]) <= _NEWTON_REL_TARGET * bound[0]:
                    z = z_new
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
    if not rect.contains(z):
        return z0, False
    # a converged Newton already met the test on f^(order) at z
    for k in range(order if converged else order + 1):
        _, s_val, _, bound = _parts(f, z, k)
        if not abs(s_val[0]) / bound[0] <= _NEWTON_REL_TARGET:
            return z0, False
    return z, True


def _split_points(f: ExpPoly, rects: list[Rectangle]) -> list[list[tuple[float, float]]]:
    """The three split points (x, y) to try in each box, best clearance first.

    One evaluation (a kernel call per _MAX_CALL_POINTS points) samples |f|,
    relative to the term scale, at 65 points on each of 9 candidate
    full-length lines per axis of every box.  Each axis ranks its lines by
    their minimum, so lines near a zero sort last, and the k-th point joins
    the k-th best line of each axis.  No hard cutoff; the quadrature
    convergence test is the final arbiter.
    """
    fractions = np.array((0.5, 0.45, 0.55, 0.4, 0.6, 0.35, 0.65, 0.3, 0.7))
    lo = np.array([(r.re_min, r.im_min) for r in rects])
    hi = np.array([(r.re_max, r.im_max) for r in rects])
    size = np.array([(r.width, r.height) for r in rects])
    # per box: the candidate x's and y's, and the 65 y's and x's along them
    coords = lo[:, :, None] + fractions * size[:, :, None]
    cross = np.linspace(lo[:, ::-1], hi[:, ::-1], 65, axis=-1)
    vertical = coords[:, 0, :, None] + 1j * cross[:, None, 0]
    horizontal = cross[:, None, 1] + 1j * coords[:, 1, :, None]
    _, s_val, _, bound = _chunked_parts(f, np.stack((vertical, horizontal), axis=1).ravel())
    rel = (np.abs(s_val) / bound).reshape(len(rects), 2, 9, 65).min(axis=3).tolist()
    points = []
    for box_rel, box_coords in zip(rel, coords.tolist()):
        # (clearance, coordinate) of each axis's three best lines
        x_best, y_best = (sorted(zip(r, c), reverse=True)[:3] for r, c in zip(box_rel, box_coords))
        points.append([(x, y) for (_, x), (_, y) in zip(x_best, y_best)])
    return points


def _isolate(f: ExpPoly, window: Rectangle, total: int) -> list[Zero]:
    """The ``total`` zeros in ``window``, in ``ZeroSet`` order, isolated in count rounds.

    A box with several zeros that is wider than _CLUSTER_DIAMETER splits.
    Each round counts in one ``_count_adaptive`` batch the quadrants of
    every box being split: a box new to the round at the best of its three
    ``_split_points`` (ranked for all new boxes in one evaluation), a box
    whose last try failed at its next point.  Quadrants that all count must
    sum to their box's count and are the next round's new boxes, with their
    counts and moments, so no box is integrated twice.  A quadrant that
    takes all of its box's zeros keeps the box's moment, which a wider
    contour gave with less cancellation.  Split fractions lie in 0.3-0.7,
    so _CLUSTER_DIAMETER ends every search without a depth cap.

    The leaves are the boxes of one zero, the boxes no wider than
    _CLUSTER_DIAMETER and the boxes that no try splits.  After the last
    round a leaf of m zeros is polished by ``_newton_polish`` of order
    m - 1 from its moment / m; a leaf of several zeros that it does not
    verify as one m-fold zero fails the search.  Only the outer window,
    counted through ``count_zeros``, comes without a moment; as a leaf it
    integrates once more for it.
    """
    leaves = []
    new: list[tuple[Rectangle, int, complex | None]] = [(window, total, None)]
    retry = []
    while True:
        split = []
        for box in new:
            rect, count, _ = box
            if count > 1 and rect.diameter > _CLUSTER_DIAMETER:
                split.append(box)
            elif count:
                leaves.append(box)
        ranked = _split_points(f, [rect for rect, _, _ in split]) if split else []
        # (box, its split points, the index of the one to try)
        tries = [(box, points, 0) for box, points in zip(split, ranked)] + retry
        if not tries:
            break
        quads = [box[0].split(*points[k]) for box, points, k in tries]
        counted = _count_adaptive(f, [q for qs in quads for q in qs])
        new, retry = [], []
        for j, (box, points, k) in enumerate(tries):
            rect, count, moment = box
            results = counted[4 * j : 4 * j + 4]
            if not any(isinstance(r, Exception) for r in results):
                counts = [n for n, _ in results]
                if sum(counts) != count:
                    raise QuadratureError(
                        f"subdivision of {rect} lost zeros: {counts} vs parent {count}"
                    )
                new += [
                    (q, n, moment if n == count and moment is not None else w1)
                    for q, (n, w1) in zip(quads[j], results)
                ]
            elif k + 1 < len(points):
                retry.append((box, points, k + 1))
            else:
                leaves.append(box)
    zeros = []
    for rect, count, moment in leaves:
        if moment is None:
            # count_zeros judged these same sums when it counted the window
            moment = _contour_sums(f, [rect], False)[0][1]
        z, refined = _newton_polish(f, moment / count, rect, count - 1)
        if count > 1 and not refined:
            raise QuadratureError(f"no subdivision of {rect} counts its {count} zeros")
        zeros.append(Zero(z, count, refined))
    # rounding Re keeps zeros on one vertical line in Im order despite last-bit noise
    return sorted(zeros, key=lambda z: (round(z.location.real, 9), z.location.imag))


def find_zeros(f: ExpPoly, rect: Rectangle) -> ZeroSet:
    """Locate all zeros of f inside ``rect`` with multiplicities.

    Every winding count (the window's and each box's) is accepted as in
    ``count_zeros``.  The window inflates by small factors (up to
    ``_MAX_INFLATIONS`` times) when its boundary starts out too close to a
    zero or its count does not converge; the window actually used is
    recorded on the result.  Isolation works in count rounds (``_isolate``):
    every box being split in a round shares each quadrature round of its
    batch, so a search makes a kernel call per quadrature round of a count
    round, not per box.  A box of one zero, a box of diameter at most 1e-6
    and a box that no split can count are leaves.  A leaf of m zeros is
    polished by Newton on f^(m-1) to a point inside the leaf where f,
    f', ..., f^(m-1) are each <= 1e-12 of their own term scale.  A simple
    zero that does not polish is reported at its box's first moment with
    ``refined=False``; a leaf of several zeros that does not polish to one
    m-fold zero raises QuadratureError.
    """
    window, (total,) = _counted_window((f,), rect)
    return ZeroSet(tuple(_isolate(f, window, total)), window, total)


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
        _isolate(f, window, n) if totals.count(n) > 1 else None
        for f, n in zip(polys, totals)
    ]
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
