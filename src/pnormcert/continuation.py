"""Branch-tracked analytic continuation of log f and of the p-norm curve.

The norm curve of a vector extends off the real axis as exp(log f(p)/p)
with f the vector's exponential sum; the extension is multivalued around
zeros of f.  This module continues a branch of log f along polyline paths
in refinement rounds: every round evaluates all of its new path nodes
together and cuts each gap whose argument step is too large.  It
also builds the keyhole loop that encircles one zero while starting and
ending on the positive real axis, and reads off the loop's multiplicative
monodromy factor.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ClearanceError,
    ContinuationError,
    InvalidInputError,
    MonodromyMismatchError,
    SingularEvaluationError,
)
from .exppoly import (
    ExpPoly,
    Zero,
    _log,
    evaluate_log,
    relative_magnitude,
)
from .vectors import RealVector

# Step control: the gap between two consecutive path nodes is accepted when
# the principal argument of f moves by less than _MAX_ARG_CHANGE across it
# and |f'/f| at its start predicts a move of at most _TARGET_ARG_CHANGE.
# Round 1 cuts no gap longer than _INITIAL_STEP, and a rejected gap is cut
# into enough pieces for the prediction (at least two) unless it is already
# shorter than _MIN_STEP.
_INITIAL_STEP = 0.25
_MIN_STEP = 1e-12
_MAX_ARG_CHANGE = math.pi / 2
_TARGET_ARG_CHANGE = math.pi / 4
# Points one path may evaluate; a path of length L needs at least 4L.
_MAX_STEPS = 100_000
_MONODROMY_REL_TOL = 1e-6
_MAX_ARC_DEGREES = 5.0


@dataclass(frozen=True)
class Path:
    """Polyline in the complex plane; consecutive duplicates are allowed."""

    points: tuple[complex, ...]

    def __post_init__(self) -> None:
        pts = tuple(complex(z) for z in self.points)
        if len(pts) < 2:
            raise InvalidInputError("a path needs at least two points")
        for z in pts:
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise InvalidInputError("path points must be finite")
            if z == 0:
                raise InvalidInputError("p = 0 is a singularity of the norm curve")
        object.__setattr__(self, "points", pts)

    @property
    def start(self) -> complex:
        return self.points[0]

    @property
    def end(self) -> complex:
        return self.points[-1]


@dataclass(frozen=True)
class BranchState:
    """A point with the continuously tracked branch of log f there.

    ``logf`` keeps the full unwrapped imaginary part; ``norm_value`` is
    exp(logf / p), the continued branch of the p-norm curve.
    """

    p: complex
    logf: complex

    @property
    def norm_value(self) -> complex:
        # computed on read: it overflows for p near 0, where loops read only logf
        return cmath.exp(self.logf / self.p)


def pnorms(v: RealVector, ps: float | tuple[float, ...] | np.ndarray) -> np.ndarray:
    """The p-norms of v at every point of ``ps`` (each a real p > 0 or +inf).

    Factors out the largest magnitude m once and returns m * (sum r**p)**(1/p)
    over the non-zero ratios r = |c|/m <= 1, so no power overflows for any p
    and p = +inf gives exactly m; exactly representable points come out exact
    (||(3,4)||_2 = 5.0, ||(1,1)||_2 = 2**0.5).  Memory is len(ps) * len(v).
    """
    ps = np.asarray(ps, dtype=float).reshape(-1)
    if not np.all(ps > 0):  # also catches nan
        raise InvalidInputError("p must be positive (or +inf)")
    m = v.max_abs
    ratios = np.abs(v.coords) / m
    ratios = ratios[ratios != 0.0]
    sums = np.add.reduce(np.power.outer(ratios, ps))
    return m * sums ** (1.0 / ps)


def pnorm_at(v: RealVector, p: float) -> float:
    """The p-norm of v for real p > 0; p = +inf gives the max norm (``pnorms``)."""
    return float(pnorms(v, float(p))[0])


def pnorm_value(f: ExpPoly, p: float) -> float:
    """p-norm read off an already-built exponential sum; p finite, > 0."""
    return math.exp(evaluate_log(f, p).real / p)


def continue_log(f: ExpPoly, path: Path) -> BranchState:
    """Track one branch of log f along ``path``.

    Starts from the principal log at the first point (real there whenever
    the path starts on the real axis, since f > 0 on reals).  Works in
    rounds: round 1 evaluates every vertex and every segment cut into
    pieces no longer than _INITIAL_STEP, and each later round evaluates the
    pieces of the gaps the previous one rejected; a round takes one kernel
    call per ``exppoly._MAX_CALL_POINTS`` points, which gives log f and f'/f
    together.  The real part of the result is the end point's principal
    log, which is exact; the imaginary part is the start's argument plus the sum of the
    accepted argument steps, so exp(logf) reproduces f(p) to machine
    accuracy.  A round that would take the path past ``_MAX_STEPS``
    evaluated points raises ContinuationError before it evaluates any,
    at the end of the longest accepted prefix.
    """
    return _track(f, path)[0]


def _track(f: ExpPoly, path: Path) -> tuple[BranchState, np.ndarray]:
    """``continue_log`` and the path nodes it accepted, in order."""
    nodes = np.array(path.points)
    nodes = nodes[np.concatenate(([True], nodes[1:] != nodes[:-1]))]
    gaps = np.abs(np.diff(nodes))
    pieces = np.ceil(gaps / _INITIAL_STEP)
    _check_budget(0, 1.0 + pieces.sum(), nodes[0])
    nodes, gaps, _, _ = _subdivide(nodes, gaps, pieces)
    logs, derivs = _evaluate(f, nodes, path.start)
    used = nodes.size
    while True:
        darg = np.diff(logs.imag)
        darg -= math.tau * np.round(darg / math.tau)
        predicted = gaps * np.abs(derivs[:-1])
        rejected = ~((np.abs(darg) < _MAX_ARG_CHANGE) & (predicted <= _TARGET_ARG_CHANGE))
        if not rejected.any():
            break
        short = rejected & (gaps < _MIN_STEP)
        if short.any():
            raise ContinuationError(
                "step size underflow (argument of f varies too fast)",
                point=complex(nodes[np.argmax(short) + 1]),
            )
        # fmax turns the NaN of a non-finite f'/f into a bisection
        pieces = np.where(rejected, np.fmax(2.0, np.ceil(predicted / _TARGET_ARG_CHANGE)), 1.0)
        _check_budget(used, (pieces - 1.0).sum(), nodes[np.argmax(rejected)])
        nodes, gaps, old, new = _subdivide(nodes, gaps, pieces)
        grown = np.empty((2, nodes.size), dtype=complex)
        grown[:, old] = logs, derivs
        grown[:, new] = _evaluate(f, nodes[new], path.start)
        logs, derivs = grown
        used += new.size
    p = complex(nodes[-1])
    logf = complex(logs[-1].real, logs[0].imag + math.fsum(darg))
    return BranchState(p, logf), nodes


def _check_budget(used: int, more: float, point: complex) -> None:
    """Refuse a round of ``more`` points past ``used`` that would exceed _MAX_STEPS."""
    if used + more > _MAX_STEPS:
        raise ContinuationError(
            f"step budget of {_MAX_STEPS} evaluated points spent before the path end",
            point=complex(point),
        )


def _subdivide(
    nodes: np.ndarray, gaps: np.ndarray, pieces: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cut gap k of the polyline ``nodes`` (length gaps[k]) into pieces[k]
    equal gaps.  Returns the new nodes, their gap lengths, and the indices
    of the old nodes (which keep their exact values) and of those inserted."""
    counts = pieces.astype(np.intp)
    old = np.concatenate(([0], np.cumsum(counts)))
    inner = counts - 1
    owner = np.repeat(np.arange(counts.size), inner)
    step = np.arange(owner.size) - np.repeat(np.cumsum(inner) - inner, inner) + 1
    new = old[owner] + step
    out = np.empty(old[-1] + 1, dtype=complex)
    out[old] = nodes
    a = nodes[owner]
    out[new] = a + (nodes[owner + 1] - a) * (step / counts[owner])
    return out, np.repeat(gaps / counts, counts), old, new


def _evaluate(f: ExpPoly, nodes: np.ndarray, start: complex) -> np.ndarray:
    """(principal log f, f'/f) at ``nodes`` as two rows.  The first singular
    node raises ContinuationError."""
    try:
        logs, s_val, ds_val = _log(f, nodes)
    except SingularEvaluationError as err:
        where = "starts at" if err.point == start else "runs into"
        raise ContinuationError(f"path {where} a zero of f", point=err.point) from err
    return np.array((logs, ds_val / s_val))


def continue_pnorm(f: ExpPoly, path: Path) -> complex:
    """The continued branch of the p-norm at the path end: exp(logf(end)/end)."""
    pts = np.array(path.points)
    # the floor absorbs rounding in the projection, so a segment whose
    # exact crossing is lost to fp noise is still rejected
    floor = 1e-15 * np.maximum(np.abs(pts[:-1]), np.abs(pts[1:]))
    if (_segment_distances(0j, pts) <= floor).any():
        raise InvalidInputError("path passes through p = 0")
    return continue_log(f, path).norm_value


def build_loop_path(
    center: complex,
    base_p: float,
    radius: float,
    turns: int = 1,
) -> Path:
    """Keyhole loop from base_p on the real axis around ``center`` and back.

    Vertical leg up from base_p to the height of the circle point nearest
    the real axis, horizontal leg to that point, ``turns`` full
    counterclockwise circles of ``radius`` (a vertex every 5 degrees at
    most), then the legs retraced.  The legs never come closer than
    ``radius`` to the center, for any base point; with base_p below the
    center the horizontal leg vanishes and the loop degenerates to a
    lollipop.  ``Path(points[::-1])`` is the clockwise loop.
    """
    center = complex(center)
    base_p = float(base_p)
    if not (math.isfinite(base_p) and base_p > 0):
        raise InvalidInputError("base point must be a positive real")
    if not (math.isfinite(radius) and radius > 0):
        raise InvalidInputError("loop radius must be positive")
    if turns < 1:
        raise InvalidInputError("turns must be a positive integer")
    if abs(center.imag) <= radius:
        raise InvalidInputError("loop would touch the real axis")
    sign = 1.0 if center.imag > 0 else -1.0
    entry_height = center.imag - sign * radius
    theta0 = -sign * math.pi / 2
    n_arc = math.ceil(360.0 * turns / _MAX_ARC_DEGREES)
    arc = tuple(
        center + radius * cmath.exp(1j * (theta0 + math.tau * turns * k / n_arc))
        for k in range(n_arc + 1)
    )
    a = complex(base_p, 0.0)
    b = complex(base_p, entry_height)
    return Path((a, b) + arc + (b, a))


def loop_monodromy(
    f: ExpPoly,
    zero: Zero | tuple[complex, int],
    base_p: float,
    loop_radius: float,
    *,
    other_zeros: tuple[complex, ...] = (),
) -> tuple[complex, complex]:
    """Measure the factor the norm branch gains around one zero of f.

    Continues log f around the keyhole loop based at base_p and returns
    (measured, predicted) where measured = exp(i Im(logf_end) / base_p),
    the loop's change of log f over base_p (log f is real at the base
    point), and predicted = exp(2 pi i m / base_p) for an m-fold zero.
    The two must agree to 1e-6 relative or MonodromyMismatchError
    is raised; agreement is the end-to-end check on the branch tracking.
    A base_p so small that float64 cannot resolve the phase 2 pi m / base_p
    to 1e-6 is refused with InvalidInputError.

    Any known non-target zeros may be passed in ``other_zeros``; the loop
    refuses to run if one of them lies inside the circle or within half a
    radius of the path.
    """
    if isinstance(zero, Zero):
        z, m = zero.location, zero.multiplicity
    else:
        z, m = complex(zero[0]), int(zero[1])
    if m < 1:
        raise InvalidInputError("zero multiplicity must be a positive integer")
    base_p = float(base_p)
    path = build_loop_path(z, base_p, loop_radius)  # validates base_p and radius
    # The factors are exp(i phase), phase = 2 pi m / base_p; float64 resolves
    # them to _MONODROMY_REL_TOL only while its spacing at phase is no
    # coarser (phase below 2^33, about 8.6e9 rad).
    phase = 2.0 * math.pi * m / base_p
    if not math.ulp(phase) <= _MONODROMY_REL_TOL:
        raise InvalidInputError(
            f"base_p {base_p!r} is too small: the loop's phase 2 pi m / base_p = {phase:.3g} "
            f"rad is not resolved to {_MONODROMY_REL_TOL:g} in float64"
        )
    if abs(complex(base_p, 0.0) - z) <= loop_radius:
        raise InvalidInputError("base point sits under the loop")
    if relative_magnitude(f, z) > 1e-6:
        raise InvalidInputError(f"{z!r} is not a zero of f")
    clearance = loop_radius / 2.0
    pts = np.array(path.points)
    for oz in other_zeros:
        oz = complex(oz)
        if abs(oz - z) <= loop_radius:
            raise ClearanceError(
                f"zero at {oz!r} lies inside the loop around {z!r}; shrink the radius"
            )
        if (_segment_distances(oz, pts) < clearance).any():
            raise ClearanceError(f"path passes within {clearance!r} of the zero at {oz!r}")
    # the loop starts and ends at base_p, where f > 0 and log f is real
    measured = cmath.exp(1j * continue_log(f, path).logf.imag / base_p)
    predicted = cmath.exp(1j * phase)
    if abs(measured - predicted) > _MONODROMY_REL_TOL * abs(predicted):
        raise MonodromyMismatchError(
            f"loop around {z!r} (m={m}, base_p={base_p}) measured {measured!r}, "
            f"predicted {predicted!r}"
        )
    return measured, predicted


def _segment_distances(z: complex, pts: np.ndarray) -> np.ndarray:
    """Distance from point z to each segment [pts[k], pts[k + 1]] of a polyline.

    z - pts[k] is projected onto the unit direction (ux, uy) of the segment,
    so no length is squared and nothing overflows below the float64 range.
    """
    za = z - pts[:-1]
    ab = np.diff(pts)
    length = np.hypot(ab.real, ab.imag)
    # a repeated point is a segment of length 0: u = 0, so its distance is |z - a|
    nonzero = length != 0.0
    ux = np.divide(ab.real, length, out=np.zeros(length.size), where=nonzero)
    uy = np.divide(ab.imag, length, out=np.zeros(length.size), where=nonzero)
    along = np.clip(za.real * ux + za.imag * uy, 0.0, length)
    # abs(complex) rounds as np.hypot does
    return np.hypot(za.real - along * ux, za.imag - along * uy)
