"""Branch-tracked analytic continuation of log f and of the p-norm curve.

The norm curve of a vector extends off the real axis as exp(log f(p)/p)
with f the vector's exponential sum; the extension is multivalued around
zeros of f.  This module marches a continuous branch of log f along
polyline paths with argument-based step control, builds the keyhole loop
that encircles one zero while starting and ending on the positive real
axis, and reads off the loop's multiplicative monodromy factor.
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
    evaluate_log,
    log_with_derivative,
    relative_magnitude,
)
from .vectors import RealVector

# Step control: a step is accepted when the principal argument of f moves by
# less than _MAX_ARG_CHANGE; the predicted size aims for _TARGET_ARG_CHANGE
# via |f'/f|.  Rejection halves the step, _GROWTH_STREAK consecutive accepts
# double it, never beyond _INITIAL_STEP.
_INITIAL_STEP = 0.25
_MIN_STEP = 1e-12
_MAX_ARG_CHANGE = math.pi / 2
_TARGET_ARG_CHANGE = math.pi / 4
_GROWTH_STREAK = 4
# Kernel calls one path may take; a path of length L needs at least 4L.
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
    norm_value: complex


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
    the path starts on the real axis, since f > 0 on reals).  At every
    accepted point the real part is re-read from the principal log, which
    is exact; only the argument accumulates, unwrapped step by step, so
    exp(logf) always reproduces f(p) to machine accuracy.  One kernel call
    per point (start and every trial) gives log f and the f'/f of the next step.
    A path that needs more than ``_MAX_STEPS`` of those calls raises
    ContinuationError at the point it reached.
    """
    p = path.points[0]
    try:
        principal, deriv = log_with_derivative(f, p)
    except SingularEvaluationError as err:
        raise ContinuationError("path starts at a zero of f", point=p) from err
    re_log = principal.real
    im_log = principal.imag
    prev_arg = principal.imag
    h = _INITIAL_STEP
    streak = 0
    calls = 1
    for z0, z1 in zip(path.points, path.points[1:]):
        seg = z1 - z0
        length = abs(seg)
        if length == 0.0:
            continue
        direction = seg / length
        t = 0.0
        while t < length:
            mag = abs(deriv)
            h_pred = _TARGET_ARG_CHANGE / mag if mag > 0 else math.inf
            while True:
                allowed = min(h, h_pred)
                if allowed >= length - t:
                    trial_t, p_trial = length, z1
                else:
                    trial_t = t + allowed
                    p_trial = z0 + direction * trial_t
                if calls >= _MAX_STEPS:
                    raise ContinuationError(
                        f"step budget of {_MAX_STEPS} kernel calls spent before the path end",
                        point=p,
                    )
                calls += 1
                try:
                    trial, trial_deriv = log_with_derivative(f, p_trial)
                except SingularEvaluationError as err:
                    raise ContinuationError(
                        "path runs into a zero of f", point=p_trial
                    ) from err
                darg = math.remainder(trial.imag - prev_arg, math.tau)
                if abs(darg) < _MAX_ARG_CHANGE:
                    break
                h = allowed / 2.0
                streak = 0
                if h < _MIN_STEP:
                    raise ContinuationError(
                        "step size underflow (argument of f varies too fast)",
                        point=p_trial,
                    )
            im_log += darg
            re_log = trial.real
            prev_arg = trial.imag
            deriv = trial_deriv
            p = p_trial
            t = trial_t
            streak += 1
            if streak >= _GROWTH_STREAK:
                h = min(2.0 * h, _INITIAL_STEP)
                streak = 0
    logf = complex(re_log, im_log)
    return BranchState(p, logf, cmath.exp(logf / p))


def continue_pnorm(f: ExpPoly, path: Path) -> complex:
    """The continued branch of the p-norm at the path end: exp(logf(end)/end)."""
    for a, b in zip(path.points, path.points[1:]):
        # the floor absorbs rounding in the projection, so a segment whose
        # exact crossing is lost to fp noise is still rejected
        if _segment_distance(0j, a, b) <= 1e-15 * max(abs(a), abs(b)):
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
    (measured, predicted) where measured = exp((logf_end - logf_start) /
    base_p) and predicted = exp(2 pi i m / base_p) for an m-fold zero.
    The two must agree to 1e-6 relative or MonodromyMismatchError
    is raised; agreement is the end-to-end check on the branch tracking.

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
    if abs(complex(base_p, 0.0) - z) <= loop_radius:
        raise InvalidInputError("base point sits under the loop")
    if relative_magnitude(f, z) > 1e-6:
        raise InvalidInputError(f"{z!r} is not a zero of f")
    clearance = loop_radius / 2.0
    for oz in other_zeros:
        oz = complex(oz)
        if abs(oz - z) <= loop_radius:
            raise ClearanceError(
                f"zero at {oz!r} lies inside the loop around {z!r}; shrink the radius"
            )
        for a, b in zip(path.points, path.points[1:]):
            if _segment_distance(oz, a, b) < clearance:
                raise ClearanceError(
                    f"path passes within {clearance!r} of the zero at {oz!r}"
                )
    start_log = evaluate_log(f, complex(base_p, 0.0))
    end = continue_log(f, path)
    measured = cmath.exp((end.logf - start_log) / base_p)
    predicted = cmath.exp(2j * math.pi * m / base_p)
    if abs(measured - predicted) > _MONODROMY_REL_TOL * abs(predicted):
        raise MonodromyMismatchError(
            f"loop around {z!r} (m={m}, base_p={base_p}) measured {measured!r}, "
            f"predicted {predicted!r}"
        )
    return measured, predicted


def _segment_distance(z: complex, a: complex, b: complex) -> float:
    """Distance from point z to the segment [a, b]."""
    ab = b - a
    den = ab.real * ab.real + ab.imag * ab.imag
    if den == 0.0:
        return abs(z - a)
    t = ((z - a).real * ab.real + (z - a).imag * ab.imag) / den
    t = max(0.0, min(1.0, t))
    return abs(z - (a + t * ab))
