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
class StepOptions:
    """Controller for argument-based step size along a path.

    A step is accepted when the principal argument of f moves by less than
    ``max_arg_change``; the predictive size aims for ``target_arg_change``
    via |f'/f|.  Rejection halves the step, ``growth_streak`` consecutive
    accepts double it, never beyond ``initial_step``.
    """

    initial_step: float = 0.25
    min_step: float = 1e-12
    max_arg_change: float = math.pi / 2
    target_arg_change: float = math.pi / 4
    growth_streak: int = 4

    def __post_init__(self) -> None:
        if not (0 < self.min_step <= self.initial_step):
            raise InvalidInputError("need 0 < min_step <= initial_step")
        if not (0 < self.target_arg_change <= self.max_arg_change <= math.pi):
            raise InvalidInputError("need 0 < target_arg_change <= max_arg_change <= pi")
        if self.growth_streak < 1:
            raise InvalidInputError("growth_streak must be positive")


@dataclass(frozen=True)
class BranchState:
    """A point with the continuously tracked branch of log f there.

    ``logf`` keeps the full unwrapped imaginary part; ``norm_value`` is
    exp(logf / p), the continued branch of the p-norm curve.
    """

    p: complex
    logf: complex
    norm_value: complex


def pnorm_at(v: RealVector, p: float) -> float:
    """The p-norm of v for real p > 0; p = +inf gives the max norm.

    Factors out the largest magnitude before powering, so every ratio is
    <= 1 and no exponent overflows for any p; results are exact at exactly
    representable points (||(3,4)||_2 = 5.0, ||(1,1)||_2 = 2**0.5).
    """
    p = float(p)
    if math.isnan(p) or p <= 0:
        raise InvalidInputError("p must be positive (or +inf)")
    if math.isinf(p):
        return v.max_abs
    m = v.max_abs
    s = math.fsum((abs(c) / m) ** p for c in v.coords if c != 0.0)
    return m * s ** (1.0 / p)


def pnorm_value(f: ExpPoly, p: float) -> float:
    """p-norm read off an already-built exponential sum; p finite, > 0."""
    return math.exp(evaluate_log(f, p).real / p)


def continue_log(f: ExpPoly, path: Path, opts: StepOptions | None = None) -> BranchState:
    """Track one branch of log f along ``path``.

    Starts from the principal log at the first point (real there whenever
    the path starts on the real axis, since f > 0 on reals).  At every
    accepted point the real part is re-read from the principal log, which
    is exact; only the argument accumulates, unwrapped step by step, so
    exp(logf) always reproduces f(p) to machine accuracy.  One kernel call
    per point (start and every trial) gives log f and the f'/f of the next step.
    """
    opts = opts or StepOptions()
    p = path.points[0]
    try:
        principal, deriv = log_with_derivative(f, p)
    except SingularEvaluationError as err:
        raise ContinuationError("path starts at a zero of f", point=p) from err
    re_log = principal.real
    im_log = principal.imag
    prev_arg = principal.imag
    h = opts.initial_step
    streak = 0
    for z0, z1 in zip(path.points, path.points[1:]):
        seg = z1 - z0
        length = abs(seg)
        if length == 0.0:
            continue
        direction = seg / length
        t = 0.0
        while t < length:
            mag = abs(deriv)
            h_pred = opts.target_arg_change / mag if mag > 0 else math.inf
            while True:
                allowed = min(h, h_pred)
                if allowed >= length - t:
                    trial_t, p_trial = length, z1
                else:
                    trial_t = t + allowed
                    p_trial = z0 + direction * trial_t
                try:
                    trial, trial_deriv = log_with_derivative(f, p_trial)
                except SingularEvaluationError as err:
                    raise ContinuationError(
                        "path runs into a zero of f", point=p_trial
                    ) from err
                darg = math.remainder(trial.imag - prev_arg, math.tau)
                if abs(darg) < opts.max_arg_change:
                    break
                h = allowed / 2.0
                streak = 0
                if h < opts.min_step:
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
            if streak >= opts.growth_streak:
                h = min(2.0 * h, opts.initial_step)
                streak = 0
    logf = complex(re_log, im_log)
    return BranchState(p, logf, cmath.exp(logf / p))


def continue_pnorm(f: ExpPoly, path: Path, opts: StepOptions | None = None) -> complex:
    """The continued branch of the p-norm at the path end: exp(logf(end)/end)."""
    for a, b in zip(path.points, path.points[1:]):
        # the floor absorbs rounding in the projection, so a segment whose
        # exact crossing is lost to fp noise is still rejected
        if _segment_distance(0j, a, b) <= 1e-15 * max(abs(a), abs(b)):
            raise InvalidInputError("path passes through p = 0")
    return continue_log(f, path, opts).norm_value


def build_loop_path(
    center: complex,
    base_p: float,
    radius: float,
    turns: int = 1,
    orientation: int = 1,
    max_arc_degrees: float = 5.0,
) -> Path:
    """Keyhole loop from base_p on the real axis around ``center`` and back.

    Vertical leg up from base_p to the height of the circle point nearest
    the real axis, horizontal leg to that point, ``turns`` full circles of
    ``radius`` (counterclockwise for orientation +1), then the legs
    retraced.  The legs never come closer than ``radius`` to the center,
    for any base point; with base_p below the center the horizontal leg
    vanishes and the loop degenerates to a lollipop.
    """
    center = complex(center)
    base_p = float(base_p)
    if not (math.isfinite(base_p) and base_p > 0):
        raise InvalidInputError("base point must be a positive real")
    if not (math.isfinite(radius) and radius > 0):
        raise InvalidInputError("loop radius must be positive")
    if turns < 1:
        raise InvalidInputError("turns must be a positive integer")
    if orientation not in (1, -1):
        raise InvalidInputError("orientation must be +1 or -1")
    if not (0 < max_arc_degrees <= 90):
        raise InvalidInputError("max_arc_degrees must be in (0, 90]")
    if abs(center.imag) <= radius:
        raise InvalidInputError("loop would touch the real axis")
    sign = 1.0 if center.imag > 0 else -1.0
    entry_height = center.imag - sign * radius
    theta0 = -sign * math.pi / 2
    n_arc = math.ceil(360.0 * turns / max_arc_degrees)
    arc = tuple(
        center + radius * cmath.exp(1j * (theta0 + orientation * math.tau * turns * k / n_arc))
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
    opts: StepOptions | None = None,
    rel_tol: float = 1e-6,
) -> tuple[complex, complex]:
    """Measure the factor the norm branch gains around one zero of f.

    Continues log f around the keyhole loop based at base_p and returns
    (measured, predicted) where measured = exp((logf_end - logf_start) /
    base_p) and predicted = exp(2 pi i m / base_p) for an m-fold zero.
    The two must agree to ``rel_tol`` relative or MonodromyMismatchError
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
    if not (math.isfinite(base_p) and base_p > 0):
        raise InvalidInputError("base point must be a positive real")
    if abs(z.imag) <= loop_radius:
        raise InvalidInputError("loop would touch the real axis")
    if abs(complex(base_p, 0.0) - z) <= loop_radius:
        raise InvalidInputError("base point sits under the loop")
    if relative_magnitude(f, z) > 1e-6:
        raise InvalidInputError(f"{z!r} is not a zero of f")
    path = build_loop_path(z, base_p, loop_radius)
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
    end = continue_log(f, path, opts)
    measured = cmath.exp((end.logf - start_log) / base_p)
    predicted = cmath.exp(2j * math.pi * m / base_p)
    if abs(measured - predicted) > rel_tol * abs(predicted):
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
