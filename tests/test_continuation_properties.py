"""Property tests of continuation in refinement rounds.

Random 2-4-term exponential sums and random polylines that stay at least
0.3 from every zero of the sum (found by ``find_zeros`` over the path's
bounding box, widened by 0.5).  Every pair of consecutive accepted nodes
must meet the acceptance rules, exp(logf) must reproduce f at the path
end, and the accumulated argument must agree with a dense-sampling
``np.unwrap`` reference computed here from the sum's terms.
"""

import cmath
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pnormcert import ExpPoly, Path, Rectangle, evaluate, evaluate_log, find_zeros
from pnormcert.continuation import (
    _INITIAL_STEP,
    _MAX_ARG_CHANGE,
    _TARGET_ARG_CHANGE,
    _segment_distances,
    _track,
)
from pnormcert.errors import QuadratureError
from pnormcert.exppoly import log_derivative

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
CLEARANCE = 0.3
# spacing of the reference samples; the reference checks that no two
# consecutive samples move the argument by pi/4 or more
DENSE_STEP = 0.01
# gap lengths are compared against |b - a|, which rounding may lengthen
ROUNDING = 1.0 + 1e-12


@st.composite
def sums_and_paths(draw):
    betas = draw(st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=4, unique=True))
    betas.sort()
    assume(all(b2 - b1 >= 0.05 for b1, b2 in zip(betas, betas[1:])))
    mults = draw(st.lists(st.integers(1, 3), min_size=len(betas), max_size=len(betas)))
    f = ExpPoly(tuple(zip(betas, mults)))
    vertex = st.builds(complex, st.floats(-3.0, 3.0), st.floats(0.5, 8.0))
    points = draw(st.lists(vertex, min_size=2, max_size=5))
    return f, np.array(points)


def _clear_of_zeros(f: ExpPoly, pts: np.ndarray) -> bool:
    box = Rectangle(
        pts.real.min() - 0.5, pts.real.max() + 0.5, pts.imag.min() - 0.5, pts.imag.max() + 0.5
    )
    try:
        zeros = find_zeros(f, box).zeros
    except QuadratureError:
        return False
    return all(_segment_distances(z.location, pts).min() >= CLEARANCE for z in zeros)


def _dense_unwrapped_argument(f: ExpPoly, pts: np.ndarray) -> float:
    """Argument of f at the path end, unwrapped along dense samples from
    its principal value at the start."""
    samples = [pts[:1]]
    for a, b in zip(pts, pts[1:]):
        n = max(1, math.ceil(abs(b - a) / DENSE_STEP))
        samples.append(a + (b - a) * np.arange(1, n + 1) / n)
    ps = np.concatenate(samples)
    betas, mults = f.exponents, f.multiplicities
    shift = np.max(np.multiply.outer(betas, ps.real), axis=0)
    values = (mults[:, None] * np.exp(np.multiply.outer(betas, ps) - shift)).sum(axis=0)
    unwrapped = np.unwrap(np.angle(values))
    assert np.abs(np.diff(unwrapped)).max(initial=0.0) < math.pi / 4
    return float(unwrapped[-1])


@PROPERTY
@given(sums_and_paths())
def test_rounds_accept_only_gaps_that_meet_the_step_rules(case):
    f, pts = case
    assume(_clear_of_zeros(f, pts))
    end, nodes = _track(f, Path(tuple(pts)))
    args = [evaluate_log(f, p).imag for p in nodes.tolist()]
    for k, (a, b) in enumerate(zip(nodes.tolist(), nodes[1:].tolist())):
        step = abs(b - a)
        assert abs(math.remainder(args[k + 1] - args[k], math.tau)) < _MAX_ARG_CHANGE
        assert step <= _INITIAL_STEP * ROUNDING
        assert step * abs(log_derivative(f, a)) <= _TARGET_ARG_CHANGE * ROUNDING

    value = evaluate(f, end.p)
    assert abs(cmath.exp(end.logf) - value) <= 1e-10 * abs(value)
    assert abs(end.logf.imag - _dense_unwrapped_argument(f, pts)) <= 1e-9
