"""Branch-tracked analytic continuation of log f and of the p-norm curve.

The norm curve of a vector extends off the real axis as exp(log f(p)/p)
with f the vector's exponential sum; the extension is multivalued around
zeros of f.  This module continues a branch of log f along polyline paths,
one or several at a time, in refinement rounds: every round evaluates all
of its new path nodes together and cuts each gap whose argument step is
too large.  It also builds the keyhole loop that encircles one zero while
starting and ending on the positive real axis, and reads off the loops'
multiplicative monodromy factors: the loops of a vector are continued
together, and run again one at a time when that fails, so a failure is
always that of the first loop to fail.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ClearanceError,
    ContinuationError,
    InvalidInputError,
    MonodromyMismatchError,
)
from .exppoly import (
    ExpPoly,
    Zero,
    _chunked_parts,
    _log,
    _stacks,
    evaluate_log,
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
        _check_points(np.array(pts))
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


def pnorms(vs: list[RealVector], ps: float | tuple[float, ...] | np.ndarray) -> np.ndarray:
    """The p-norms of the vectors ``vs`` at the points ``ps`` (each a real p > 0
    or +inf): entry [i, k] is ||vs[k]||_{ps[i]}.

    Factors out each vector's largest magnitude m and returns
    m * (sum r**p)**(1/p) over its non-zero ratios r = |c|/m <= 1, so no power
    overflows for any p and p = +inf gives exactly m; exactly representable
    points come out exact (||(3,4)||_2 = 5.0, ||(1,1)||_2 = 2**0.5).  The
    vectors with k non-zero ratios stack their ratio rows, so one power and
    one sum over k fill their columns, _MAX_STACK_ELEMENTS elements at a time
    (a vector with more than that runs alone).  The sum over k runs in order
    either way, so a column has the bits of the vector's own call.
    """
    ps = np.asarray(ps, dtype=float).reshape(-1)
    if not np.all(ps > 0):  # also catches nan
        raise InvalidInputError("p must be positive (or +inf)")
    lengths = np.array([len(v) for v in vs])
    starts = np.cumsum(lengths) - lengths
    coords = itertools.chain.from_iterable(v.coords for v in vs)
    ratios = np.abs(np.fromiter(coords, float, starts[-1] + lengths[-1]))
    m = np.maximum.reduceat(ratios, starts)
    ratios /= np.repeat(m, lengths)
    nonzero = ratios != 0.0
    counts = np.add.reduceat(nonzero, starts, dtype=np.intp)
    ratios = ratios[nonzero]
    firsts = np.cumsum(counts) - counts
    inverse = 1.0 / ps
    out = np.empty((ps.size, len(vs)))
    for k, cols in _stacks(counts.tolist(), ps.size):
        rows = ratios[firsts[cols, None] + np.arange(k)]
        sums = np.add.reduce(np.power(rows[:, :, None], ps), axis=1)
        out[:, cols] = (m[cols, None] * sums**inverse).T
    return out


def pnorm_at(v: RealVector, p: float) -> float:
    """The p-norm of v for real p > 0; p = +inf gives the max norm (``pnorms``)."""
    return float(pnorms([v], float(p))[0, 0])


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
    return _track_paths(f, [np.array(path.points)])[0]


def _track_paths(f: ExpPoly, paths: list[np.ndarray]) -> list[tuple[BranchState, np.ndarray]]:
    """``_track`` of each vertex array in ``paths``, in shared rounds.

    The nodes of all paths lie end to end in one array, path k from node
    starts[k] on.  The link from a path's end to the next path's start is a
    gap of length 0 that is never judged or cut, so each path keeps its own
    gaps, budget and argument sum, while each round evaluates the new nodes
    of all paths together.  Returns (end state, accepted nodes) of each
    path.  A round that refuses a path raises its ContinuationError: at the
    first node of the round where f is numerically zero (by the rule of
    ``exppoly._log``), else as ``_refused`` finds it.  A path tracked
    alone so raises its own refusal; in a batch the refused path need not
    be the first that would be refused.
    """
    first = np.cumsum([0] + [p.size for p in paths[:-1]])
    nodes = np.concatenate(paths)
    keep = np.concatenate(([True], nodes[1:] != nodes[:-1]))
    keep[first] = True
    starts = np.cumsum(keep)[first] - 1
    nodes = nodes[keep]
    gaps = np.abs(np.diff(nodes))
    gaps[starts[1:] - 1] = 0.0
    # the budget refuses every gap this long; capped there, no count of
    # pieces overflows
    reach = _MAX_STEPS * _INITIAL_STEP
    pieces = np.fmax(1.0, np.ceil(np.fmin(gaps, reach) / _INITIAL_STEP))
    rejected = np.ones(gaps.size, dtype=bool)  # round 1 cuts every gap
    short = np.zeros(gaps.size, dtype=bool)
    values = None
    while True:
        _refused(nodes, starts, rejected, short, pieces)
        nodes, gaps, old, new = _subdivide(nodes, gaps, pieces)
        starts = old[starts]
        grown = np.empty((2, nodes.size), dtype=complex)
        if values is None:  # round 1 evaluates every node
            fresh = np.arange(nodes.size)
        else:
            grown[:, old] = values
            fresh = new
        grown[:, fresh], bad = _log(f, nodes[fresh])
        if bad is not None:
            at = fresh[bad]
            where = "starts at" if at in starts else "runs into"
            raise ContinuationError(f"path {where} a zero of f", point=complex(nodes[at]))
        values = grown
        logs, derivs = values
        darg = np.diff(logs.imag)
        darg -= math.tau * np.round(darg / math.tau)
        predicted = gaps * np.abs(derivs[:-1])
        rejected = ~((np.abs(darg) < _MAX_ARG_CHANGE) & (predicted <= _TARGET_ARG_CHANGE))
        rejected[starts[1:] - 1] = False
        if not rejected.any():
            break
        short = rejected & (gaps < _MIN_STEP)
        # fmax turns the NaN of a non-finite f'/f into a bisection
        pieces = np.where(rejected, np.fmax(2.0, np.ceil(predicted / _TARGET_ARG_CHANGE)), 1.0)
    ends = np.append(starts[1:] - 1, nodes.size - 1)
    tracked = []
    for s, e in zip(starts.tolist(), ends.tolist()):
        logf = complex(logs[e].real, logs[s].imag + math.fsum(darg[s:e]))
        tracked.append((BranchState(complex(nodes[e]), logf), nodes[s : e + 1]))
    return tracked


def _refused(
    nodes: np.ndarray,
    starts: np.ndarray,
    rejected: np.ndarray,
    short: np.ndarray,
    pieces: np.ndarray,
) -> None:
    """Raise the ContinuationError of a round that cannot go on.

    A rejected gap shorter than _MIN_STEP refuses the round at its end.
    Otherwise, when cutting gap k into pieces[k] would take a path past
    _MAX_STEPS evaluated points, the first such path is refused at the
    start of its first rejected gap, before any of the new points is
    evaluated.
    """
    if short.any():
        gap = np.argmax(short)
        raise ContinuationError(
            "step size underflow (argument of f varies too fast)", point=complex(nodes[gap + 1])
        )
    # a path holds a point per piece of its gaps and its end point, which
    # the one piece of its link to the next path counts (the appended 1
    # for the last path)
    over = np.flatnonzero(np.add.reduceat(np.append(pieces, 1.0), starts) > _MAX_STEPS)
    if over.size:
        gap = starts[over[0]] + np.argmax(rejected[starts[over[0]] :])
        raise ContinuationError(
            f"step budget of {_MAX_STEPS} evaluated points spent before the path end",
            point=complex(nodes[gap]),
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


def build_loop_path(
    center: complex,
    base_p: float,
    radius: float,
    turns: int = 1,
) -> Path:
    """Keyhole loop from base_p on the real axis around ``center`` and back.

    Vertical leg up from base_p to the height of the circle point nearest
    the real axis, horizontal leg to that point, ``turns`` full
    counterclockwise circles of ``radius`` (a vertex every
    _MAX_ARC_DEGREES degrees at most), then the legs retraced.  The legs
    never come closer than ``radius`` to the center, for any base point;
    with base_p below the center the horizontal leg vanishes and the loop
    degenerates to a lollipop.  ``Path(points[::-1])`` is the clockwise loop.
    """
    return Path(tuple(_loop_vertices(complex(center), float(base_p), radius, turns).tolist()))


def _loop_vertices(center: complex, base_p: float, radius: float, turns: int) -> np.ndarray:
    """The points of ``build_loop_path`` as an array, refused as it refuses them."""
    if not (math.isfinite(base_p) and base_p > 0):
        raise InvalidInputError("base point must be a positive real")
    if not (math.isfinite(radius) and radius > 0):
        raise InvalidInputError("loop radius must be positive")
    if turns < 1:
        raise InvalidInputError("turns must be a positive integer")
    if abs(center.imag) <= radius:
        raise InvalidInputError(
            f"options.radius: the loop of radius {radius!r} around the zero at {center!r} "
            "would touch the real axis"
        )
    sign = 1.0 if center.imag > 0 else -1.0
    entry_height = center.imag - sign * radius
    theta0 = -sign * math.pi / 2
    n_arc = math.ceil(360.0 * turns / _MAX_ARC_DEGREES)
    arc = center + radius * np.exp(1j * (theta0 + math.tau * turns * np.arange(n_arc + 1) / n_arc))
    a = complex(base_p, 0.0)
    b = complex(base_p, entry_height)
    pts = np.concatenate(((a, b), arc, (b, a)))
    _check_points(pts)
    return pts


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
    The two must agree to _MONODROMY_REL_TOL relative or
    MonodromyMismatchError is raised; agreement is the end-to-end check on
    the branch tracking.  A base_p so small that float64 cannot resolve
    the phase 2 pi m / base_p to _MONODROMY_REL_TOL is refused with
    InvalidInputError, and so is a point where |f| is above 1e-6 of its
    term scale, unless it is a ``Zero`` the zero search could not refine:
    that one raises ContinuationError.

    Any known non-target zeros may be passed in ``other_zeros``; the loop
    refuses to run if one of them lies inside the circle or within half a
    radius of the path.
    """
    return loop_monodromies(f, [zero], [base_p], loop_radius, other_zeros=[other_zeros])[0]


def loop_monodromies(
    f: ExpPoly,
    zeros: list[Zero | tuple[complex, int]],
    base_ps: list[float] | tuple[float, ...],
    loop_radius: float,
    *,
    other_zeros: list[tuple[complex, ...]] | None = None,
) -> list[tuple[complex, complex]]:
    """``loop_monodromy`` around each of ``zeros`` from each of ``base_ps``.

    Returns the pair of each loop, zero by zero and base point by base
    point; ``other_zeros[i]`` are the known zeros other than zeros[i]
    (none by default).  The loops are checked as ``loop_monodromy`` checks
    them, continued in shared rounds (``_track_paths``) and their factors
    compared, all in one pass.  If that pass fails, the loops run again one
    ``loop_monodromy`` call at a time, so the pairs and the error raised
    are those of one call per loop in turn: the error is that of the first
    loop to fail.
    """
    targets = [z if isinstance(z, Zero) else Zero(complex(z[0]), int(z[1])) for z in zeros]
    others = other_zeros if other_zeros is not None else [()] * len(targets)
    loops = [(i, float(bp)) for i in range(len(targets)) for bp in base_ps]
    if not loops:
        return []
    try:
        paths, phases = [], []
        for i, base_p in loops:
            if targets[i].multiplicity < 1:
                raise InvalidInputError("zero multiplicity must be a positive integer")
            paths.append(_loop_vertices(targets[i].location, base_p, loop_radius, 1))
            # The factors are exp(i phase), phase = 2 pi m / base_p; float64
            # resolves them to _MONODROMY_REL_TOL only while its spacing at
            # phase is no coarser (phase below 2^33, about 8.6e9 rad).
            phase = 2.0 * math.pi * targets[i].multiplicity / base_p
            if not math.ulp(phase) <= _MONODROMY_REL_TOL:
                raise InvalidInputError(
                    f"base_p {base_p!r} is too small: the loop's phase 2 pi m / base_p = "
                    f"{phase:.3g} rad is not resolved to {_MONODROMY_REL_TOL:g} in float64"
                )
            phases.append(phase)
        _, s_val, _, bound = _chunked_parts(f, np.array([t.location for t in targets]))
        relative = (np.abs(s_val) / bound).tolist()
        clearance = loop_radius / 2.0
        for path, (i, _) in zip(paths, loops):
            z = targets[i].location
            if relative[i] > 1e-6:
                if not targets[i].refined:
                    raise ContinuationError(
                        f"unrefined zero at {z!r}: |f| there is {relative[i]:.3g} of its "
                        "term scale, too large for a loop around it",
                        point=z,
                    )
                raise InvalidInputError(f"{z!r} is not a zero of f")
            if others[i]:
                near = np.array(others[i], dtype=complex)
                inside = np.abs(near - z) <= loop_radius
                bad = inside | (_segment_distances(near, path) < clearance).any(axis=-1)
                if bad.any():
                    j = int(np.argmax(bad))
                    oz = complex(others[i][j])
                    raise ClearanceError(
                        f"zero at {oz!r} lies inside the loop around {z!r}; shrink the radius"
                        if inside[j]
                        else f"path passes within {clearance!r} of the zero at {oz!r}"
                    )
        pairs = []
        for (state, _), (i, base_p), phase in zip(_track_paths(f, paths), loops, phases):
            z, m = targets[i].location, targets[i].multiplicity
            # the loop starts and ends at base_p, where f > 0 and log f is real
            measured = cmath.exp(1j * state.logf.imag / base_p)
            predicted = cmath.exp(1j * phase)
            if abs(measured - predicted) > _MONODROMY_REL_TOL * abs(predicted):
                raise MonodromyMismatchError(
                    f"loop around {z!r} (m={m}, base_p={base_p}) measured {measured!r}, "
                    f"predicted {predicted!r}"
                )
            pairs.append((measured, predicted))
        return pairs
    except (InvalidInputError, ContinuationError, MonodromyMismatchError):
        if len(loops) == 1:
            raise
    return [
        loop_monodromy(f, targets[i], base_p, loop_radius, other_zeros=others[i])
        for i, base_p in loops
    ]


def _check_points(pts: np.ndarray) -> None:
    """Refuse a path whose first bad point is not finite, or is p = 0."""
    bad = ~np.isfinite(pts) | (pts == 0)
    if bad.any():
        if np.isfinite(pts[np.argmax(bad)]):
            raise InvalidInputError("p = 0 is a singularity of the norm curve")
        raise InvalidInputError("path points must be finite")


def _segment_distances(z: complex | np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Distance from point z to each segment [pts[k], pts[k + 1]] of a polyline;
    for an array of points, a row of distances for each.

    z - pts[k] is projected onto the unit direction (ux, uy) of the segment,
    so no length is squared and nothing overflows below the float64 range.
    """
    za = np.asarray(z)[..., None] - pts[:-1]
    ab = np.diff(pts)
    length = np.hypot(ab.real, ab.imag)
    # a repeated point is a segment of length 0: u = 0, so its distance is |z - a|
    nonzero = length != 0.0
    ux = np.divide(ab.real, length, out=np.zeros(length.size), where=nonzero)
    uy = np.divide(ab.imag, length, out=np.zeros(length.size), where=nonzero)
    along = np.clip(za.real * ux + za.imag * uy, 0.0, length)
    # abs(complex) rounds as np.hypot does
    return np.hypot(za.real - along * ux, za.imag - along * uy)
