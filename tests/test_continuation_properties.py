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

from pnormcert import (
    ExpPoly,
    InvalidInputError,
    Path,
    RealVector,
    Rectangle,
    evaluate,
    evaluate_log,
    find_zeros,
    from_vector,
    loop_monodromies,
    loop_monodromy,
)
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


@st.composite
def two_term_loops(draw):
    """c1 + c2 e^(gap p), the sum of (1,)*c1 + (e^gap,)*c2, with the first
    1-3 of its zeros (ln(c1/c2) + (2k + 1) pi i) / gap above the real axis,
    a loop radius r a tenth of the zeros' spacing and 1-3 base points at
    least r right of the zeros, so no loop's legs pass near another zero.

    Two terms sum in the same order whatever the size of a kernel call;
    NumPy sums three or more in another order for a one-point call, which
    can move a factor by an ulp when a lone loop has a one-point round."""
    gap = draw(st.floats(0.3, 2.0))
    c1, c2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    v = RealVector((1.0,) * c1 + (math.exp(gap),) * c2)
    count = draw(st.integers(1, 3))
    zeros = [complex(math.log(c1 / c2), (2 * k + 1) * math.pi) / gap for k in range(count)]
    radius = 0.2 * math.pi / gap
    lowest = max(0.5, zeros[0].real + radius)
    base_ps = draw(st.lists(st.floats(lowest, lowest + 5.0), min_size=1, max_size=3))
    return v, zeros, base_ps, radius


def _outcome(call):
    try:
        return call()
    except (InvalidInputError, ArithmeticError, RuntimeError) as err:
        return type(err), str(err)


@PROPERTY
@given(two_term_loops())
def test_batched_loops_equal_one_loop_calls(case):
    v, zeros, base_ps, radius = case
    f = from_vector(v)
    others = [tuple(w for w in zeros if w != z) for z in zeros]
    batched = _outcome(
        lambda: loop_monodromies(f, [(z, 1) for z in zeros], base_ps, radius, other_zeros=others)
    )
    alone = _outcome(
        lambda: [
            loop_monodromy(f, (z, 1), base_p, radius, other_zeros=rest)
            for z, rest in zip(zeros, others)
            for base_p in base_ps
        ]
    )
    assert batched == alone
    assert isinstance(batched, list), batched  # closed-form zeros: every loop runs
