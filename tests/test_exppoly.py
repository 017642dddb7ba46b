import cmath
import math

import numpy as np
import pytest

from pnormcert import exppoly
from pnormcert import (
    BoundaryProximityError,
    ExpPoly,
    InvalidInputError,
    QuadratureError,
    RealVector,
    Rectangle,
    SingularEvaluationError,
    count_zeros,
    evaluate,
    evaluate_log,
    find_zeros,
    from_vector,
    ratio_factor,
    zero_multiset_equal,
)

WINDOW = Rectangle(-1.0, 1.0, 0.5, 40.0)


def two_term_zeros(b1: float, b2: float, rect: Rectangle) -> list[complex]:
    """Closed form: c1 e^{b1 p} + c2 e^{b2 p} = 0 at p = (ln(c1/c2)+(2k+1)pi i)/(b2-b1)."""
    out = []
    for k in range(-200, 200):
        z = complex(0.0, (2 * k + 1) * math.pi) / (b2 - b1)
        if rect.contains(z):
            out.append(z)
    return sorted(out, key=lambda z: (z.real, z.imag))


def test_exppoly_validation():
    with pytest.raises(InvalidInputError):
        ExpPoly(())
    with pytest.raises(InvalidInputError):
        ExpPoly(((0.0, 0),))
    with pytest.raises(InvalidInputError):
        ExpPoly(((1.0, 1), (1.0, 1)))
    with pytest.raises(InvalidInputError):
        ExpPoly(((2.0, 1), (1.0, 1)))


def test_rectangle_validation():
    with pytest.raises(InvalidInputError):
        Rectangle(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(InvalidInputError):
        Rectangle(0.0, 1.0, 2.0, 1.0)


def test_from_vector_known_cases():
    f = from_vector(RealVector((1.0, 1.0, 0.0)))
    assert f.terms == ((0.0, 2),)

    f = from_vector(RealVector((math.e, 1.0)))
    assert f.terms == ((0.0, 1), (1.0, 1))

    f = from_vector(RealVector((math.e, math.e, 1.0)))
    assert f.terms == ((0.0, 1), (1.0, 2))


def test_from_vector_merges_within_tolerance():
    # exponents within 1e-12 are one term; 1e-11 apart they stay two
    f = from_vector(RealVector((1.0, 1.0 + 1e-15, 2.0)))
    assert [m for _, m in f.terms] == [2, 1]
    g = from_vector(RealVector((1.0, 1.0 + 1e-11, 2.0)))
    assert [m for _, m in g.terms] == [1, 1, 1]


def test_evaluate_known_values():
    f = ExpPoly(((0.0, 2),))
    for p in (0.3, 2 + 1j, -5.0):
        assert evaluate(f, p) == 2.0

    g = ExpPoly(((0.0, 1), (1.0, 1)))
    assert abs(evaluate(g, complex(0.0, math.pi))) <= 1e-15
    assert evaluate(g, 0.0) == 2.0


def test_evaluate_log_known_values():
    f = ExpPoly(((0.0, 2),))
    assert evaluate_log(f, 3.0) == complex(math.log(2.0))

    g = ExpPoly(((0.0, 1), (1.0, 1)))
    assert evaluate_log(g, 1000.0).real == pytest.approx(1000.0, rel=1e-15)
    with pytest.raises(SingularEvaluationError):
        evaluate_log(g, complex(0.0, math.pi))


@pytest.mark.parametrize(
    "log_fn", [exppoly.evaluate_log, exppoly.log_derivative, exppoly.log_with_derivative]
)
def test_log_and_its_derivative_share_one_singular_rule(log_fn):
    # the Newton-polished zero near i pi of e^p + 1, where f is not exactly 0
    f = from_vector(RealVector((math.e, 1.0)))
    (zero,) = find_zeros(f, Rectangle(-1, 1, 1, 5)).zeros
    assert zero.refined and abs(zero.location - complex(0.0, math.pi)) < 1e-12
    with pytest.raises(SingularEvaluationError):
        log_fn(f, zero.location)


def test_count_zeros_known_windows():
    g = ExpPoly(((0.0, 1), (1.0, 1)))  # zeros at (2k+1) pi i
    assert count_zeros(g, Rectangle(-1, 1, 2, 4)) == 1
    assert count_zeros(g, Rectangle(-1, 1, 2, 10)) == 2
    assert count_zeros(ExpPoly(((0.0, 2),)), Rectangle(-3, 3, 0.1, 50)) == 0


def by_imag(zeros):
    # real parts of purely imaginary zeros carry ~1e-16 jitter, so the
    # (re, im) report order is not positionally comparable; sort on im
    return sorted(zeros, key=lambda z: z.location.imag)


def test_find_zeros_closed_forms():
    g = ExpPoly(((0.0, 1), (1.0, 1)))
    zs = find_zeros(g, Rectangle(-1, 1, 1, 10))
    assert zs.total == 2
    expect = [complex(0, math.pi), complex(0, 3 * math.pi)]
    for z, e in zip(by_imag(zs.zeros), expect):
        assert z.multiplicity == 1
        assert z.refined
        assert abs(z.location - e) <= 1e-9 * abs(e)

    f = from_vector(RealVector((math.e**2, 1.0)))
    zs = find_zeros(f, Rectangle(-1, 1, 1, 2))
    assert zs.total == 1
    assert abs(zs.zeros[0].location - complex(0, math.pi / 2)) <= 1e-9

    assert find_zeros(ExpPoly(((0.0, 2),)), WINDOW).zeros == ()


def test_find_zeros_two_term_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        b1, b2 = sorted(rng.uniform(-2, 2, size=2))
        if b2 - b1 < 1e-3:
            continue
        f = ExpPoly(((b1, 1), (b2, 1)))
        zs = find_zeros(f, WINDOW)
        expect = sorted(two_term_zeros(b1, b2, zs.window), key=lambda z: z.imag)
        assert zs.total == len(expect)
        for z, e in zip(by_imag(zs.zeros), expect):
            assert abs(z.location - e) <= 1e-9 * abs(e)


def test_find_zeros_reports_multiplicity():
    # (1 + 2^p)^2 built from a vector with doubled magnitudes; double zeros
    # at (2k+1) pi i / ln 2, i.e. about 4.53i and 13.60i
    f = from_vector(RealVector((1.0, 2.0, 2.0, 4.0)))
    zs = find_zeros(f, Rectangle(-1, 1, 1, 15))
    assert zs.total == 4
    assert [z.multiplicity for z in zs.zeros] == [2, 2]
    ln2 = math.log(2.0)
    expect = [complex(0, math.pi / ln2), complex(0, 3 * math.pi / ln2)]
    for z, e in zip(by_imag(zs.zeros), expect):
        assert not z.refined
        assert abs(z.location - e) <= 1e-9 * abs(e)


def test_window_inflation_when_zero_sits_on_boundary():
    g = ExpPoly(((0.0, 1), (1.0, 1)))
    rect = Rectangle(-1.0, 1.0, math.pi, 40.0)  # bottom edge through i*pi
    zs = find_zeros(g, rect)
    assert zs.window != rect
    # inflation spreads both edges: im range becomes about [2.57, 40.58],
    # which picks up pi and keeps 13pi = 40.84 out
    assert zs.total == 6
    with pytest.raises(BoundaryProximityError):
        count_zeros(g, rect)


def test_count_additivity_over_partition():
    f = ExpPoly(((-0.4, 1), (0.3, 2), (1.1, 1)))
    rect = Rectangle(-1.0, 1.0, 0.5, 30.0)
    total = count_zeros(f, rect)
    # split at generic interior values to keep all boundaries admissible
    x, y = 0.037, 14.13
    parts = [
        Rectangle(rect.re_min, x, rect.im_min, y),
        Rectangle(x, rect.re_max, rect.im_min, y),
        Rectangle(rect.re_min, x, y, rect.im_max),
        Rectangle(x, rect.re_max, y, rect.im_max),
    ]
    assert total == sum(count_zeros(f, q) for q in parts)


def test_real_axis_positivity():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n_terms = int(rng.integers(1, 6))
        betas = np.sort(rng.uniform(-2, 2, size=n_terms))
        while len(betas) > 1 and np.min(np.diff(betas)) < 1e-9:
            betas = np.sort(rng.uniform(-2, 2, size=n_terms))
        mults = rng.integers(1, 4, size=n_terms)
        f = ExpPoly(tuple((float(b), int(m)) for b, m in zip(betas, mults)))
        for p in rng.uniform(-50, 50, size=25):
            val = evaluate(f, float(p))
            assert val.real > 0
            assert abs(val.imag) <= 1e-12 * val.real


def test_found_zeros_annihilate_f():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n_terms = int(rng.integers(2, 6))
        betas = np.sort(rng.uniform(-2, 2, size=n_terms))
        if np.min(np.diff(betas)) < 0.2:
            continue
        mults = rng.integers(1, 4, size=n_terms)
        f = ExpPoly(tuple((float(b), int(m)) for b, m in zip(betas, mults)))
        zs = find_zeros(f, Rectangle(-1, 1, 0.5, 15))
        assert zs.total == count_zeros(f, zs.window)
        scale = f.multiplicities
        for z in zs.zeros:
            bound = float(np.sum(scale * np.exp(f.exponents * z.location.real)))
            assert abs(evaluate(f, z.location)) <= 1e-8 * bound


def test_zero_multiset_known_pairs():
    f = from_vector(RealVector((math.e, 1.0)))
    g = from_vector(RealVector((7 * math.e, 7.0)))  # equivalent, rescaled
    h = from_vector(RealVector((math.e**2, 1.0)))  # zeros at i*pi/2 spacing
    rect = Rectangle(-1, 1, 1, 10)
    assert zero_multiset_equal(f, g, rect)
    assert not zero_multiset_equal(f, h, rect)
    assert zero_multiset_equal(f, f, rect)


def test_ratio_factor_known_fits():
    f = from_vector(RealVector((math.e, 1.0)))
    fit = ratio_factor(f, f)
    assert fit.a == 1.0 and fit.beta == pytest.approx(0.0, abs=1e-14)
    assert fit.residual <= 1e-14

    g = from_vector(RealVector((2 * math.e, 2.0)))  # 2v shifts all exponents by ln 2
    fit = ratio_factor(g, f)
    assert fit.a == 1.0
    assert fit.beta == pytest.approx(math.log(2.0), rel=1e-12)
    assert fit.residual <= 1e-12

    two = from_vector(RealVector((1.0, 1.0)))
    one = from_vector(RealVector((1.0,)))
    fit = ratio_factor(two, one)
    assert fit.a == 2.0
    assert fit.beta == pytest.approx(0.0, abs=1e-14)
    assert fit.residual <= 1e-12


def test_ratio_factor_directional_consistency():
    f = from_vector(RealVector((3.0, 5.0, 1.0)))
    g = from_vector(RealVector((0.6, 1.0, 0.2)))  # f rescaled by 1/5
    ab = ratio_factor(f, g)
    ba = ratio_factor(g, f)
    assert math.isclose(ab.a * ba.a, 1.0, rel_tol=1e-10)
    assert abs(ab.beta + ba.beta) <= 1e-10


def test_ratio_factor_large_residual_for_unrelated_sums():
    f = from_vector(RealVector((1.0, 2.0)))
    g = from_vector(RealVector((1.0, 3.0)))
    assert ratio_factor(f, g).residual >= 1e-3


def test_ratio_factor_rejects_degenerate_samples():
    f = from_vector(RealVector((1.0, 2.0)))
    with pytest.raises(InvalidInputError):
        ratio_factor(f, f, [2.0, 2.0])


def test_evaluate_handles_large_real_parts():
    f = ExpPoly(((-1.0, 1), (1.0, 1)))
    for p in (700.0, -700.0, complex(650.0, 1e4)):
        val = evaluate_log(f, p)
        assert math.isfinite(val.real) and math.isfinite(val.imag)
    assert evaluate_log(f, 700.0).real == pytest.approx(700.0, rel=1e-15)


def test_term_arrays_are_built_once_and_read_only():
    f = ExpPoly(((-0.5, 2), (1.0, 1)))
    assert f.exponents is f.exponents
    assert f.multiplicities is f.multiplicities
    assert f.multiplicities.tolist() == [2.0, 1.0]
    with pytest.raises(ValueError):
        f.exponents[0] = 0.0


def test_zeros_on_one_vertical_line_come_out_in_imag_order():
    # every zero of a two-term sum has the same real part; the order must
    # not depend on last-bit noise in the computed real parts
    zs = find_zeros(from_vector(RealVector((math.e, 1.0))), Rectangle(-1, 1, 0.5, 40))
    assert zs.total == 6
    ims = [z.location.imag for z in zs.zeros]
    assert ims == sorted(ims)


def test_window_inflates_when_edge_zero_escapes_the_level_zero_check():
    # 2 * 2^p + 1 vanishes at -1 + i pi (2k+1) / ln 2, on the left edge of
    # the default window; its count there does not stabilize
    f = from_vector(RealVector((2.0, 2.0, 1.0)))
    zs = find_zeros(f, WINDOW)
    assert zs.window != WINDOW
    assert zs.total == 4
    ln2 = math.log(2.0)
    expect = [complex(-1.0, (2 * k + 1) * math.pi / ln2) for k in range(4)]
    assert [z.multiplicity for z in zs.zeros] == [1] * 4
    for z, e in zip(zs.zeros, expect):
        assert abs(z.location - e) <= 1e-9 * abs(e)
    assert zero_multiset_equal(f, f, WINDOW)


def test_count_beyond_the_zero_bound_is_refused():
    # a box of height h holds at most h ln2 / 2pi + 1 zeros of 2^p + 1,
    # whatever its width; over this width the quadrature is noise and
    # settles far above that
    f = from_vector(RealVector((1.0, 2.0)))
    with pytest.raises(QuadratureError, match="zeros there"):
        find_zeros(f, Rectangle(-1e50, 1e50, 0.5, 40.0))


def test_zero_multiset_equal_counts_each_window_once(monkeypatch):
    calls = []
    real = exppoly.count_zeros

    def spy(f, rect):
        calls.append(f)
        return real(f, rect)

    monkeypatch.setattr(exppoly, "count_zeros", spy)
    rect = Rectangle(-1.0, 1.0, 1.0, 10.0)
    f = from_vector(RealVector((math.e, 1.0)))
    g = from_vector(RealVector((2 * math.e, 2.0)))  # same zeros, shifted exponents
    assert zero_multiset_equal(f, g, rect)
    assert calls == [f, g]

    calls.clear()  # unequal totals (2 against 4) answer before any isolation
    h = from_vector(RealVector((math.e**2, 1.0)))
    assert not zero_multiset_equal(f, h, rect)
    assert calls == [f, h]


@pytest.mark.parametrize(
    "coords",
    [
        pytest.param(
            (
                -1.6345606321223392,
                0.15492149539579433,
                0.7035303220399862,
                1.8873301820424153,
                0.6930508139120903,
                0.6649270814416212,
            ),
            id="six-terms-13-zeros",
        ),
        pytest.param(
            (1.5271153361313976, -1.5271153361313976, -0.13120647606785793, -4.344961754894462),
            id="tied-pair",
        ),
        pytest.param(
            (
                1.9111132034680927,
                0.14069299447216116,
                4.659112099367416,
                -0.143127721922098,
                -0.27750468735676553,
                -2.634694695691499,
            ),
            id="six-terms-wide",
        ),
    ],
)
def test_each_counted_zero_is_reported_once_inside_the_window(coords):
    # Newton started from a box centre can converge to a neighbouring box's
    # zero; that zero would then be reported twice and this box's one lost
    f = from_vector(RealVector(coords))
    zs = find_zeros(f, exppoly.DEFAULT_WINDOW)
    assert sum(z.multiplicity for z in zs.zeros) == zs.total
    for i, a in enumerate(zs.zeros):
        assert zs.window.contains(a.location)
        if a.refined:
            assert exppoly.relative_magnitude(f, a.location) <= 1e-12
        for b in zs.zeros[i + 1 :]:
            assert abs(a.location - b.location) > 1e-6


def test_find_zeros_integrates_no_box_twice(monkeypatch):
    seen = []
    real = exppoly._contour_sums

    def spy(f, rect, check_boundary):
        seen.append(rect)
        return real(f, rect, check_boundary)

    monkeypatch.setattr(exppoly, "_contour_sums", spy)
    zs = find_zeros(from_vector(RealVector((math.e, 1.0))), Rectangle(-1, 1, 0.5, 40))
    assert zs.total == 6
    assert len(seen) == len(set(seen))


def test_split_ranking_keeps_midline_zeros_cheap(monkeypatch):
    # 1 + 2^p has its 4 zeros in the default window on Re p = 0, the
    # window's midline: a split there fails and costs kernel calls, which
    # the ranking of candidate lines by min |f| avoids (27 calls with the
    # ranking, 53 when the midpoint is tried first)
    calls = []
    real = exppoly._parts

    def spy(f, ps):
        calls.append(1)
        return real(f, ps)

    monkeypatch.setattr(exppoly, "_parts", spy)
    zs = find_zeros(from_vector(RealVector((1.0, 2.0))), exppoly.DEFAULT_WINDOW)
    assert zs.total == 4 and all(abs(z.location.real) < 1e-12 for z in zs.zeros)
    assert len(calls) <= 32


def test_search_at_a_vanishing_quad_tol_reports_no_false_cluster(monkeypatch):
    # a winding tolerance of 1e-300 accepts only windings that land on an
    # integer exactly; the three simple zeros pi i, 3 pi i, 5 pi i once came
    # out as one unrefined zero of multiplicity 3
    monkeypatch.setattr(exppoly, "_QUAD_TOL", 1e-300)
    f = from_vector(RealVector((math.e, 1.0)))
    try:
        zs = find_zeros(f, Rectangle(-1, 1, 1, 20))
    except QuadratureError:
        return
    assert [z.multiplicity for z in zs.zeros] == [1, 1, 1]


def test_a_wide_box_whose_splits_all_fail_is_not_a_cluster(monkeypatch):
    # only the outer window counts; every split count fails
    real = exppoly._count_adaptive

    def split_counts_fail(f, rect, check_boundary):
        if not check_boundary:
            raise QuadratureError("split count refused")
        return real(f, rect, check_boundary)

    monkeypatch.setattr(exppoly, "_count_adaptive", split_counts_fail)
    f = from_vector(RealVector((math.e, 1.0)))
    with pytest.raises(QuadratureError, match="no subdivision"):
        find_zeros(f, Rectangle(-1, 1, 1, 20))
