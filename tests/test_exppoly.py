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


@pytest.mark.parametrize("log_fn", [exppoly.evaluate_log, exppoly.log_derivative])
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
        assert z.refined
        assert abs(z.location - e) <= 1e-12 * abs(e)


def binomial_vector(base: float, m: int) -> RealVector:
    """A vector whose sum is (1 + base^p)^m: base^k repeated C(m, k) times."""
    return RealVector(tuple(base**k for k in range(m + 1) for _ in range(math.comb(m, k))))


@pytest.mark.parametrize(
    "base, m, window, n",
    [
        # (1 + 3^p)^3 and (1 + 2^p)^4: m-fold zeros at (2k+1) pi i / ln base
        (3.0, 3, WINDOW, 7),
        (2.0, 4, Rectangle(-1, 1, 1, 15), 2),
        # (1 + e^p)^2 in a window 2000 wide and 4.5 high: the double zero i pi
        (math.e, 2, Rectangle(-1000, 1000, 0.5, 5), 1),
    ],
)
def test_find_zeros_refines_multiple_zeros(base, m, window, n):
    zs = find_zeros(from_vector(binomial_vector(base, m)), window)
    assert zs.total == m * n
    assert [z.multiplicity for z in zs.zeros] == [m] * n
    expect = [complex(0, (2 * k + 1) * math.pi / math.log(base)) for k in range(n)]
    for z, e in zip(by_imag(zs.zeros), expect):
        assert z.refined
        assert abs(z.location - e) <= 1e-14 * abs(e)


def test_a_split_double_zero_is_two_simple_zeros(monkeypatch):
    # 1 + 2^p + (2 (1 + 1e-6))^p + 4^p is (1 + 2^p)^2 but for one exponent
    # 1e-6 off: its double zero near pi i / ln 2 splits into two simple
    # zeros about 6e-3 apart; f' vanishes between them at |f| ~ 1e-6 relative
    f = from_vector(RealVector((1.0, 2.0, 2.0 * (1 + 1e-6), 4.0)))
    window = Rectangle(-1, 1, 1, 6)
    zs = find_zeros(f, window)
    assert [z.multiplicity for z in zs.zeros] == [1, 1]
    assert all(z.refined for z in zs.zeros)
    assert 5e-3 < abs(zs.zeros[0].location - zs.zeros[1].location) < 7e-3
    # a leaf holding both is not verified as one double zero: Newton on f'
    # converges between them, where |f| is far above 1e-12
    monkeypatch.setattr(exppoly, "_CLUSTER_DIAMETER", 0.1)
    with pytest.raises(QuadratureError, match="counts its 2 zeros"):
        find_zeros(f, window)


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


def test_window_inflates_when_a_first_round_node_sits_on_a_zero():
    # the bottom edge of width 4 has 5 panels, the middle one centred on
    # the zero i pi / ln 2 of 1 + 2^p: the first round's relative-|f| test
    # refuses the window before any winding is judged
    f = from_vector(RealVector((1.0, 2.0)))
    zero = 1j * math.pi / math.log(2.0)
    window = Rectangle(-2.0, 2.0, zero.imag, 10.0)
    with pytest.raises(BoundaryProximityError, match="passes within relative magnitude 1.61e-16"):
        count_zeros(f, window)
    zs = find_zeros(f, window)
    # one inflation: Re [-2.0625, 2.0625] x Im [4.4469, 10.0854]
    assert zs.window == window.inflate(exppoly._INFLATION_FACTOR)
    assert zs.total == 1
    assert abs(zs.zeros[0].location - zero) <= 1e-9 * abs(zero)


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

    def spy(f, rects, check_boundary):
        seen.extend(rects)
        return real(f, rects, check_boundary)

    monkeypatch.setattr(exppoly, "_contour_sums", spy)
    zs = find_zeros(from_vector(RealVector((math.e, 1.0))), Rectangle(-1, 1, 0.5, 40))
    assert zs.total == 6
    assert len(seen) == len(set(seen))


def test_split_ranking_keeps_midline_zeros_cheap(kernel_calls):
    # 1 + 2^p has its 4 zeros in the default window on Re p = 0, the
    # window's midline: a split there fails and costs kernel calls, which
    # the ranking of candidate lines by min |f| avoids (13 calls with the
    # ranking and one call per quadrature round of a count round; 24 with a
    # call per box, 53 when the midpoint was tried first)
    zs = find_zeros(from_vector(RealVector((1.0, 2.0))), exppoly.DEFAULT_WINDOW)
    assert zs.total == 4 and all(abs(z.location.real) < 1e-12 for z in zs.zeros)
    assert len(kernel_calls) <= 32


def test_find_zeros_makes_one_kernel_call_per_round_of_a_level(kernel_calls):
    # e^p + 1 has 6 zeros here; every box split in a count round shares each
    # quadrature round, and every new box the split-line sampling (21 calls;
    # 41 with one per box)
    zs = find_zeros(from_vector(RealVector((math.e, 1.0))), WINDOW)
    assert zs.total == 6 and all(z.refined for z in zs.zeros)
    assert len(kernel_calls) <= 26


@pytest.mark.parametrize(
    "coords, rect",
    [((1.0, 2.0), exppoly.DEFAULT_WINDOW), ((1.0, 2.0, 3.0), Rectangle(-2.0, 1.0, 1.0, 9.0))],
)
def test_split_points_rank_both_axes_in_one_kernel_call(kernel_calls, coords, rect):
    f = from_vector(RealVector(coords))
    (points,) = exppoly._split_points(f, [rect])
    assert [c.size for c in kernel_calls] == [2 * 9 * 65]

    # each axis ranked by the minimum relative |f| over 65 points of each
    # candidate line, largest first, as relative_magnitude measures it
    fractions = (0.5, 0.45, 0.55, 0.4, 0.6, 0.35, 0.65, 0.3, 0.7)

    def ranked(lo, hi, cross_lo, cross_hi, point):
        coords = [lo + t * (hi - lo) for t in fractions]
        cross = np.linspace(cross_lo, cross_hi, 65)
        clearance = [
            min(exppoly.relative_magnitude(f, point(c, s)) for s in cross) for c in coords
        ]
        return [c for _, c in sorted(zip(clearance, coords), reverse=True)][:3]

    xs = ranked(rect.re_min, rect.re_max, rect.im_min, rect.im_max, complex)
    ys = ranked(rect.im_min, rect.im_max, rect.re_min, rect.re_max, lambda c, s: complex(s, c))
    assert points == list(zip(xs, ys))


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
    monkeypatch.setattr(
        exppoly,
        "_count_adaptive",
        lambda f, rects: [QuadratureError("split count refused") for _ in rects],
    )
    f = from_vector(RealVector((math.e, 1.0)))
    with pytest.raises(QuadratureError, match="no subdivision"):
        find_zeros(f, Rectangle(-1, 1, 1, 20))


def test_simple_zeros_where_f_and_a_higher_derivative_vanish_are_not_a_multiple_zero(
    monkeypatch,
):
    # f = 3 + 4 * 2^p + 4^p = (1 + 2^p)(3 + 2^p) has three simple zeros
    # i pi (2k+1) / ln 2 here, and f'' = 4 ln^2 2 * 2^p (1 + 2^p) vanishes at
    # each, so Newton on f'' from their centroid lands on a zero of f; f' is
    # no zero there, so the window is no triple zero
    monkeypatch.setattr(
        exppoly,
        "_count_adaptive",
        lambda f, rects: [QuadratureError("split count refused") for _ in rects],
    )
    f = from_vector(RealVector((1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 4.0)))
    with pytest.raises(QuadratureError, match="no subdivision .* counts its 3 zeros"):
        find_zeros(f, Rectangle(-1, 1, 0.5, 25))


def test_a_box_whose_first_split_fails_splits_at_its_next_point(monkeypatch):
    # e^p + 1 has its six zeros here on Re p = 0; boxes below Im 10 try that
    # line first, so their first split runs through a zero and is refused,
    # while the boxes above split at their best point at once
    f = from_vector(RealVector((math.e, 1.0)))
    real_points, real_count = exppoly._split_points, exppoly._count_adaptive
    refused = []

    def midline_first(f, rects):
        ranked = real_points(f, rects)
        for rect, points in zip(rects, ranked):
            if rect.im_min < 10 and rect.re_min < 0 < rect.re_max:
                points[0] = (0.0, points[0][1])
        return ranked

    def spy(f, rects):
        counted = real_count(f, rects)
        refused.extend(r for r, c in zip(rects, counted) if isinstance(c, Exception))
        return counted

    monkeypatch.setattr(exppoly, "_split_points", midline_first)
    monkeypatch.setattr(exppoly, "_count_adaptive", spy)
    zs = find_zeros(f, WINDOW)
    assert refused and all(0.0 in (r.re_min, r.re_max) for r in refused)
    assert zs.total == 6 and all(z.multiplicity == 1 and z.refined for z in zs.zeros)
    for k, z in enumerate(zs.zeros):
        assert abs(z.location - 1j * math.pi * (2 * k + 1)) <= 1e-12 * abs(z.location)
