"""Property tests of the exponential-sum kernel against 50-digit mpmath sums.

Exponents and points are drawn so that |beta * Re p| reaches 700, the
documented overflow-safe range.  Each tolerance is a multiple of the double
rounding unit times the condition of the quantity: the argument beta * p is
rounded once, so every term carries a relative error of about
eps * (1 + max|beta| |p|), and cancellation among the terms magnifies that
by the term scale over |f|.  Points where |f| is below 1e-6 of the term
scale (next to a zero, where log f is ill-conditioned) are skipped.
The kernel's chunked calls are checked against one call, and its stacked
calls against the calls of each sum alone, bit for bit.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pnormcert import (
    ExpPoly,
    RealVector,
    SingularEvaluationError,
    evaluate_log,
    exppoly,
    from_vector,
    ratio_factor,
)
from pnormcert.exppoly import (
    _DEFAULT_RATIO_SAMPLES,
    _log,
    _parts,
    _stack,
    log_derivative,
    relative_magnitude,
)

EPS = 2.0**-52
DIGITS = 50
# Tolerances are SLACK times the error model; over 3000 random draws the
# largest observed error was 0.4 of the tolerance.
SLACK = 4.0
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def exp_sums(draw, max_beta: float = 20.0) -> ExpPoly:
    betas = draw(
        st.lists(
            st.floats(-max_beta, max_beta), min_size=1, max_size=5, unique=True
        )
    )
    betas.sort()
    # well-separated exponents stay strictly increasing under a shift
    assume(all(b2 - b1 >= 1e-6 for b1, b2 in zip(betas, betas[1:])))
    mults = draw(st.lists(st.integers(1, 4), min_size=len(betas), max_size=len(betas)))
    return ExpPoly(tuple(zip(betas, mults)))


@st.composite
def sums_and_points(draw):
    """A sum and a point with |beta * Re p| <= 700 for every exponent."""
    f = draw(exp_sums())
    top = max(1.0, float(max(abs(f.exponents))))
    re = draw(st.floats(-1.0, 1.0)) * 700.0 / top
    im = draw(st.floats(-40.0, 40.0))
    return f, complex(re, im)


def _beta_max(f: ExpPoly) -> float:
    return float(max(abs(f.exponents)))


def _reference(f: ExpPoly, p: complex) -> tuple:
    """(f(p), f'(p), term scale sum_j c_j exp(beta_j Re p)) at DIGITS digits."""
    z = mpmath.mpc(p.real, p.imag)
    terms = [(mpmath.mpf(b), m * mpmath.exp(mpmath.mpf(b) * z)) for b, m in f.terms]
    value = mpmath.fsum(t for _, t in terms)
    slope = mpmath.fsum(b * t for b, t in terms)
    scale = mpmath.fsum(m * mpmath.exp(mpmath.mpf(b) * z.real) for b, m in f.terms)
    return value, slope, scale


def _conditioning(f: ExpPoly, p: complex) -> tuple:
    value, slope, scale = _reference(f, p)
    rel = float(abs(value) / scale)
    unit = EPS * (1.0 + _beta_max(f) * abs(p)) * len(f.terms)
    return value, slope, rel, unit


@PROPERTY
@given(sums_and_points())
def test_evaluate_log_matches_mpmath(case):
    f, p = case
    with mpmath.workdps(DIGITS):
        value, _, rel, unit = _conditioning(f, p)
        assume(rel >= 1e-6)
        ref = complex(mpmath.log(value))
    got = evaluate_log(f, p)
    tol = SLACK * unit / rel
    assert abs(got.real - ref.real) <= tol * max(1.0, abs(ref.real))
    assert abs(math.remainder(got.imag - ref.imag, math.tau)) <= tol


@PROPERTY
@given(sums_and_points())
def test_log_derivative_matches_mpmath(case):
    f, p = case
    with mpmath.workdps(DIGITS):
        value, slope, rel, unit = _conditioning(f, p)
        assume(rel >= 1e-6)
        ref = complex(slope / value)
    got = log_derivative(f, p)
    assert abs(got - ref) <= SLACK * unit * (_beta_max(f) + abs(ref)) / rel


@PROPERTY
@given(sums_and_points())
def test_relative_magnitude_matches_mpmath(case):
    f, p = case
    with mpmath.workdps(DIGITS):
        _, _, rel, unit = _conditioning(f, p)
    assert abs(relative_magnitude(f, p) - rel) <= SLACK * unit


@PROPERTY
@given(sums_and_points(), st.integers(0, 3))
def test_kernel_derivatives_match_mpmath(case, order):
    # _parts(f, p, k) scales f^(k) and f^(k+1) by exp(-M); each is compared
    # with its own term scale, as the rounding of its terms is
    f, p = case
    m_val, s_val, ds_val, bound = (x.item() for x in _parts(f, p, order))
    unit = EPS * (1.0 + _beta_max(f) * abs(p)) * len(f.terms) * (1 + order)
    with mpmath.workdps(DIGITS):
        z = mpmath.mpc(p.real, p.imag)

        def scaled(k):
            terms = [
                m * mpmath.mpf(b) ** k * mpmath.exp(mpmath.mpf(b) * z - m_val)
                for b, m in f.terms
            ]
            return complex(mpmath.fsum(terms)), float(mpmath.fsum(abs(t) for t in terms))

        value, scale = scaled(order)
        slope, slope_scale = scaled(order + 1)
    assert abs(s_val - value) <= SLACK * unit * scale
    assert abs(ds_val - slope) <= SLACK * unit * slope_scale
    assert abs(bound - scale) <= SLACK * unit * scale


def _reference_fit(f: ExpPoly, g: ExpPoly, ps: list[float]) -> tuple[float, float]:
    """(beta, residual) of ratio_factor's fit, worked at DIGITS digits."""
    with mpmath.workdps(DIGITS):
        pts = [mpmath.mpf(p) for p in ps]
        log_f = [mpmath.log(_reference(f, p)[0].real) for p in ps]
        log_g = [mpmath.log(_reference(g, p)[0].real) for p in ps]
        log_a = mpmath.log(mpmath.mpf(f.degree) / g.degree)
        diffs = [x - y - log_a for x, y in zip(log_f, log_g)]
        p_mean = mpmath.fsum(pts) / len(pts)
        d_mean = mpmath.fsum(diffs) / len(diffs)
        beta = mpmath.fsum((p - p_mean) * (d - d_mean) for p, d in zip(pts, diffs))
        beta /= mpmath.fsum((p - p_mean) ** 2 for p in pts)
        residual = mpmath.mpf(0)
        for p, d, lf in zip(pts, diffs, log_f):
            w = d - beta * p
            assume(abs(-w - 700) > 1e-6)
            if -w > 700:
                return float(beta), math.inf
            damp = min(mpmath.mpf(1), mpmath.exp(lf))
            residual = max(residual, abs(1 - mpmath.exp(-w)) * damp)
        return float(beta), float(residual)


@st.composite
def ratio_cases(draw):
    """Two sums and real samples with |beta * p| <= 700 on every sample."""
    f = draw(exp_sums(max_beta=87.5))
    if draw(st.booleans()):
        # an equivalent pair: every exponent shifted by ln c
        shift = draw(st.floats(-3.0, 3.0))
        g = ExpPoly(tuple((b + shift, m) for b, m in f.terms))
    else:
        g = draw(exp_sums(max_beta=87.5))
    top = max(1.0, _beta_max(f), _beta_max(g))
    if top * 8.0 <= 700.0 and draw(st.booleans()):
        return f, g, list(_DEFAULT_RATIO_SAMPLES)
    reach = 700.0 / top
    samples = draw(
        st.lists(st.floats(-reach, reach), min_size=3, max_size=16, unique=True)
    )
    assume(max(samples) - min(samples) >= reach / 4)
    return f, g, samples


@PROPERTY
@given(ratio_cases())
def test_ratio_factor_matches_mpmath(case):
    f, g, samples = case
    beta, residual = _reference_fit(f, g, samples)
    fit = ratio_factor(f, g, samples)
    assert fit.a == f.degree / g.degree
    top = max(1.0, _beta_max(f), _beta_max(g))
    reach = max(abs(p) for p in samples)
    spread = max(samples) - min(samples)
    unit = EPS * (1.0 + top * reach) * (len(f.terms) + len(g.terms))
    assert abs(fit.beta - beta) <= SLACK * unit / spread
    if math.isinf(residual):
        assert math.isinf(fit.residual)
    else:
        assert abs(fit.residual - residual) <= SLACK * unit * (1.0 + residual)


@PROPERTY
@given(exp_sums(), st.integers(2, 5), st.data())
def test_chunks_of_two_or_more_points_give_the_values_of_one_call(f, cap, data):
    # _chunked_parts calls the kernel once per cap points; with no chunk of
    # one point, each point's values are those of one call of all points,
    # bit for bit (a one-point call may sum the terms in another order)
    n = data.draw(st.integers(cap + 2, 4 * cap).filter(lambda n: n % cap != 1))
    top = max(1.0, _beta_max(f))
    re = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    im = data.draw(st.lists(st.floats(-40.0, 40.0), min_size=n, max_size=n))
    ps = np.array(re) * (700.0 / top) + 1j * np.array(im)
    whole = _parts(f, ps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exppoly, "_MAX_CALL_POINTS", cap)
        chunked = exppoly._chunked_parts(f, ps)
    for a, b in zip(whole, chunked):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [4097, 8193])
def test_a_call_one_point_past_the_cap_gives_the_values_of_one_call(n):
    # the point past the last full chunk goes with the point before it (the
    # last two chunks are 4,095 and 2 points), so no point is summed alone
    rng = np.random.default_rng(n)
    for _ in range(10):
        t = int(rng.integers(3, 9))
        betas = np.sort(rng.choice(np.arange(-300, 300) / 100, t, replace=False))
        f = ExpPoly(tuple(zip(betas.tolist(), rng.integers(1, 4, t).tolist())))
        ps = rng.uniform(-100.0, 100.0, n) + 1j * rng.uniform(-40.0, 40.0, n)
        whole = _parts(f, ps)
        for a, b in zip(whole, exppoly._chunked_parts(f, ps)):
            assert a.tobytes() == b.tobytes()


def test_a_kernel_call_holds_at_most_the_stack_cap_of_term_points(kernel_calls):
    # 4,096 points of a 1,000-term sum would be 4.1M term-points in one call
    f = from_vector(RealVector(tuple(1.0 + k / 1000 for k in range(1000))))
    assert len(f.terms) == 1000
    ps = np.linspace(1.0, 4.0, 5000)
    logs = _log(f, ps)[0]
    assert [c.size for c in kernel_calls] == [1048] * 4 + [808]
    assert max(c.size for c in kernel_calls) * 1000 <= exppoly._MAX_STACK_ELEMENTS
    assert logs.tobytes() == _log(f, ps[:2500])[0].tobytes() + _log(f, ps[2500:])[0].tobytes()


@st.composite
def stacks(draw):
    """1-6 sums of one term count (1-8) and 1-20 points, real or complex,
    with |beta * Re p| <= 700 for every exponent."""
    t = draw(st.integers(1, 8))
    polys = []
    for _ in range(draw(st.integers(1, 6))):
        betas = sorted(draw(st.lists(st.floats(-20.0, 20.0), min_size=t, max_size=t, unique=True)))
        assume(all(b2 - b1 >= 1e-6 for b1, b2 in zip(betas, betas[1:])))
        mults = draw(st.lists(st.integers(1, 4), min_size=t, max_size=t))
        polys.append(ExpPoly(tuple(zip(betas, mults))))
    top = max(1.0, max(_beta_max(f) for f in polys))
    n = draw(st.integers(1, 20))
    re = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))) * (700.0 / top)
    if draw(st.booleans()):
        return polys, re
    im = draw(st.lists(st.floats(-40.0, 40.0), min_size=n, max_size=n))
    return polys, re + 1j * np.array(im)


@PROPERTY
@given(stacks())
def test_a_stacked_log_gives_each_sum_the_bits_of_its_own_call(case):
    # the sums of one term count are evaluated in one call; each row is
    # reduced over its own terms, so it holds the values of that sum alone
    polys, ps = case
    try:
        alone = [_log(f, ps) for f in polys]
    except SingularEvaluationError:
        with pytest.raises(SingularEvaluationError):
            _log(_stack(polys), ps)
        return
    stacked = _log(_stack(polys), ps)
    for row, one in enumerate(alone):
        for a, b in zip(stacked, one):
            assert a[row].tobytes() == b.tobytes()
