"""The locally adaptive Gauss-Kronrod rule behind every zero count.

The rule's constants are checked against exact monomial integrals, its
counts against the closed-form zeros of two-term sums, and its work
against fixed kernel-point budgets (a deterministic count, no clock).
"""

import collections
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pnormcert import (
    BoundaryProximityError,
    ExpPoly,
    QuadratureError,
    RealVector,
    Rectangle,
    count_zeros,
    exppoly,
    find_zeros,
    from_vector,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def test_gauss_kronrod_constants_integrate_monomials_exactly():
    nodes = exppoly._KRONROD_NODES
    for degree in range(23):
        exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
        powers = nodes**degree
        assert abs(powers @ exppoly._KRONROD_WEIGHTS - exact) <= 1e-14, degree
        if degree <= 13:
            assert abs(powers @ exppoly._GAUSS_WEIGHTS - exact) <= 1e-14, degree
    # the Gauss weights sit on the 7-point Gauss-Legendre nodes
    gauss = nodes[exppoly._GAUSS_WEIGHTS != 0]
    assert np.allclose(gauss, np.polynomial.legendre.leggauss(7)[0], rtol=0, atol=1e-15)


def _distance_to_boundary(z: complex, rect: Rectangle) -> float:
    dx = max(rect.re_min - z.real, 0.0, z.real - rect.re_max)
    dy = max(rect.im_min - z.imag, 0.0, z.imag - rect.im_max)
    if dx or dy:
        return math.hypot(dx, dy)
    return min(
        z.real - rect.re_min, rect.re_max - z.real, z.imag - rect.im_min, rect.im_max - z.imag
    )


@st.composite
def two_term_counts(draw):
    """c1 e^(b1 p) + c2 e^(b2 p), a rectangle, and its zeros there in closed form.

    The zeros are (ln(c1 / c2) + (2k + 1) pi i) / (b2 - b1); no zero lies
    within 1e-3 of the rectangle's boundary.
    """
    b1 = draw(st.floats(-3.0, 3.0))
    step = draw(st.floats(0.2, 3.0))
    c1, c2 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    re = math.log(c1 / c2) / step  # every zero lies on this vertical line
    width = draw(st.floats(0.1, 3.0))
    re_min = re - width * draw(st.floats(-0.25, 1.0))
    im_min = draw(st.floats(-10.0, 30.0))
    im_max = im_min + draw(st.floats(0.1, 40.0))
    rect = Rectangle(re_min, re_min + width, im_min, im_max)
    ks = range(
        math.floor(im_min * step / (2 * math.pi)) - 1,
        math.ceil(im_max * step / (2 * math.pi)) + 1,
    )
    zeros = [complex(re, (2 * k + 1) * math.pi / step) for k in ks]
    assume(all(_distance_to_boundary(z, rect) > 1e-3 for z in zeros))
    return ExpPoly(((b1, c1), (b1 + step, c2))), rect, sum(rect.contains(z) for z in zeros)


@PROPERTY
@given(two_term_counts())
def test_count_matches_the_closed_form_of_two_term_sums(case):
    f, rect, expected = case
    assert count_zeros(f, rect) == expected


# Kernel points find_zeros used on each search before the adaptive rule,
# when every count doubled the panels of all four edges per level.
UNIFORM_POINTS = {
    "six-terms-13-zeros": 149631,
    "tied-pair": 666245,
    "six-terms-wide": 312055,
    "edge-1e-3-from-a-zero": 114570,
}
SEARCHES = {
    # the vectors of test_each_counted_zero_is_reported_once_inside_the_window
    "six-terms-13-zeros": (
        (
            -1.6345606321223392,
            0.15492149539579433,
            0.7035303220399862,
            1.8873301820424153,
            0.6930508139120903,
            0.6649270814416212,
        ),
        exppoly.DEFAULT_WINDOW,
    ),
    "tied-pair": (
        (1.5271153361313976, -1.5271153361313976, -0.13120647606785793, -4.344961754894462),
        exppoly.DEFAULT_WINDOW,
    ),
    "six-terms-wide": (
        (
            1.9111132034680927,
            0.14069299447216116,
            4.659112099367416,
            -0.143127721922098,
            -0.27750468735676553,
            -2.634694695691499,
        ),
        exppoly.DEFAULT_WINDOW,
    ),
    # e^p + 1 vanishes at i pi, 1e-3 below the bottom edge
    "edge-1e-3-from-a-zero": ((math.e, 1.0), Rectangle(-1.0, 1.0, math.pi + 1e-3, 20.0)),
}


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_zero_search_uses_under_half_the_uniform_kernel_points(kernel_calls, name):
    coords, window = SEARCHES[name]
    zs = find_zeros(from_vector(RealVector(coords)), window)
    assert sum(z.multiplicity for z in zs.zeros) == zs.total
    assert kernel_calls.points < UNIFORM_POINTS[name] / 2


@pytest.fixture
def term_points(monkeypatch) -> collections.Counter:
    """Term-points (points x terms) of every kernel call from here on, keyed
    by the stage that made it: "_contour_sums" or None."""
    work = collections.Counter()
    stages = [None]
    real_parts = exppoly._parts

    def parts(f, ps, *args, **kwargs):
        work[stages[-1]] += np.asarray(ps).size * len(f.terms)
        return real_parts(f, ps, *args, **kwargs)

    def staged(name):
        real = getattr(exppoly, name)

        def run(*args, **kwargs):
            stages.append(name)
            try:
                return real(*args, **kwargs)
            finally:
                stages.pop()

        monkeypatch.setattr(exppoly, name, run)

    monkeypatch.setattr(exppoly, "_parts", parts)
    staged("_contour_sums")
    return work


def test_boxes_of_few_zeros_are_solved_not_split(monkeypatch):
    # the sums of test_each_counted_zero_is_reported_once_inside_the_window
    # and e^p + 1: 132 halves were counted when every box of several zeros
    # split, and 34 once boxes of 2 to 4 zeros are solved from their power
    # sums
    halves = []
    count = exppoly._count_adaptive
    monkeypatch.setattr(
        exppoly, "_count_adaptive", lambda edges, boxes: halves.extend(boxes) or count(edges, boxes)
    )
    for name in ("six-terms-13-zeros", "tied-pair", "six-terms-wide"):
        find_zeros(from_vector(RealVector(SEARCHES[name][0])), exppoly.DEFAULT_WINDOW)
    find_zeros(from_vector(RealVector((math.e, 1.0))), exppoly.DEFAULT_WINDOW)
    assert halves and len(halves) <= 132 // 2


def test_triple_zeros_cost_a_tenth_of_their_split_search(term_points):
    # (1 + 3^p)^3 has seven triple zeros here; boxes split around each down
    # to ~4e-4 across, which took 4,351,920 contour term-points, and 55,800
    # once each box of one triple zero is solved from its power sums
    v = RealVector(tuple(3.0**k for k in range(4) for _ in range(math.comb(3, k))))
    zs = find_zeros(from_vector(v), exppoly.DEFAULT_WINDOW)
    assert [z.multiplicity for z in zs.zeros] == [3] * 7
    assert term_points["_contour_sums"] <= 4_351_920 // 10


def test_halving_boxes_across_their_longer_side_keeps_split_work_down(kernel_calls):
    # 1 + 40^p has 23 zeros here, up the line Re p = 0, so its boxes of
    # more than 4 zeros split: 26,119 kernel points when each box was cut
    # into four at a point, 13,759 once it was halved across its longer
    # side, with no empty half to count, 8,787 once no cut line was
    # sampled, and 2,934 now that each piece of contour is integrated once
    # and the window is cut into 8 pieces in one round
    zs = find_zeros(from_vector(RealVector((1.0, 40.0))), exppoly.DEFAULT_WINDOW)
    assert zs.total == 23
    assert kernel_calls.points <= 10_000


def test_a_contour_node_on_a_zero_refuses_the_count_without_a_warning():
    # (1 + 5^p)^5 has a 5-fold zero at 5 pi i / ln 5 = 9.76i.  The right
    # edge of this box, a half its search counts, runs 2.4e-4 from it, and
    # f rounds to exactly 0 at a node of a bisected panel there: the count
    # is refused, and no RuntimeWarning is raised (warnings fail tests here)
    b = math.log(5.0)
    f = ExpPoly(tuple((k * b, math.comb(5, k)) for k in range(6)))
    box = Rectangle(
        -0.09999999999999998, 0.00023750000000004323, 9.731367248457033, 9.879584210937502
    )
    edges = exppoly._Edges(f)
    (counted,) = exppoly._count_adaptive(edges, [edges.outline(box)])
    assert isinstance(counted, QuadratureError)
    assert "value (nan+0j), error estimate inf" in str(counted)


def test_a_zero_1e_3_from_an_edge_is_counted_without_inflation():
    # the uniform rule inflated this window; the adaptive one resolves the
    # near-pole of f'/f by bisecting only the panels next to it
    coords, window = SEARCHES["edge-1e-3-from-a-zero"]
    zs = find_zeros(from_vector(RealVector(coords)), window)
    assert zs.window == window
    expect = [complex(0.0, 3 * math.pi), complex(0.0, 5 * math.pi)]
    assert len(zs.zeros) == 2
    for z, e in zip(zs.zeros, expect):
        assert z.multiplicity == 1 and z.refined
        assert abs(z.location - e) <= 1e-9 * abs(e)


def test_a_count_that_cannot_converge_costs_no_more_than_the_uniform_rule(kernel_calls):
    # over Re [-1e50, 1e50] every panel's estimate is float64 noise, so every
    # panel is bisected each round until the work cap stops the count; the
    # uniform rule spent 8 levels of 8-point panels on the 420 base panels,
    # doubled per level
    kernel_calls.limit = 8 * 420 * (2**8 - 1)
    f = from_vector(RealVector((1.0, 2.0)))
    with pytest.raises(QuadratureError):
        count_zeros(f, Rectangle(-1e50, 1e50, 0.5, 40.0))
    # the first round is the 420 base panels, in calls of at most the cap
    cap = exppoly._MAX_CALL_POINTS
    assert [c.size for c in kernel_calls[:2]] == [cap, 15 * 420 - cap]


def test_no_kernel_call_of_a_many_zero_search_passes_the_cap(kernel_calls):
    # 35 zeros: the wide levels of this search hold more panels per round
    # than one call may take
    zs = find_zeros(from_vector(RealVector((1.0, 2.0, 3.0))), Rectangle(-1.0, 1.0, 0.5, 200.0))
    assert zs.total == 35 and sum(z.multiplicity for z in zs.zeros) == 35
    assert max(c.size for c in kernel_calls) == exppoly._MAX_CALL_POINTS


@st.composite
def sums_and_batches(draw):
    """A 2-4 term sum and a batch of boxes to count together.

    Up to four plain boxes; some batches also hold a box whose count cannot
    converge (Re +-1e50) and one whose bottom edge runs through a zero.
    """
    betas = np.cumsum(
        [draw(st.floats(-2.0, 2.0))]
        + draw(st.lists(st.floats(0.3, 2.0), min_size=1, max_size=3))
    ).tolist()
    f = ExpPoly(tuple((b, draw(st.integers(1, 4))) for b in betas))
    box = st.builds(
        lambda x, w, y, h: Rectangle(x, x + w, y, y + h),
        st.floats(-2.0, 2.0),
        st.floats(0.05, 3.0),
        st.floats(-5.0, 30.0),
        st.floats(0.05, 20.0),
    )
    rects = draw(st.lists(box, min_size=1, max_size=4))
    if draw(st.integers(0, 4)) == 3:
        rects.insert(draw(st.integers(0, len(rects))), Rectangle(-1e50, 1e50, 0.5, 1.5))
    if draw(st.booleans()):
        zeros = find_zeros(f, Rectangle(-2.0, 2.0, 0.5, 12.0)).zeros
        if zeros:
            z = zeros[0].location
            edge = Rectangle(z.real - 0.5, z.real + 0.5, z.imag, z.imag + 1.0)
            rects.insert(draw(st.integers(0, len(rects))), edge)
    return f, rects


def _bits(sums: tuple) -> tuple[str, ...]:
    """The bits of every value of one box's ``_contour_sums`` or ``_box_sums``."""
    parts = [(v.real, v.imag) if isinstance(v, complex) else (v,) for v in sums]
    return tuple(x.hex() for part in parts for x in part)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(sums_and_batches())
def test_a_box_counts_the_same_in_any_batch(case):
    f, rects = case
    # boxes on lines of their own, counted together in one store and each
    # alone in a store of its own; then their power sums up to those a
    # solve reads, as if each held _MOMENT_ZEROS zeros
    edges = exppoly._Edges(f)
    boxes = [edges.outline(rect) for rect in rects]
    batch = exppoly._contour_sums(edges, boxes)
    alone = []
    for rect, sums in zip(rects, batch):
        own = exppoly._Edges(f)
        box = own.outline(rect)
        (box.sums,) = exppoly._contour_sums(own, [box])
        assert len(sums) == 3 and _bits(sums) == _bits(box.sums)
        alone.append((own, box))
    top = 2 * exppoly._MOMENT_ZEROS
    for full, sums, (own, box) in zip(exppoly._box_sums(edges, boxes, top), batch, alone):
        (own_full,) = exppoly._box_sums(own, [box], top)
        assert len(full) == top + 1 and _bits(full) == _bits(own_full)
        # the higher sums extend the count's, bit for bit
        assert _bits(full[:2] + full[-1:]) == _bits(sums)
    # the counts of _count_adaptive are those of count_zeros
    edges = exppoly._Edges(f)
    counts = exppoly._count_adaptive(edges, [edges.outline(rect) for rect in rects])
    for rect, counted in zip(rects, counts):
        try:
            expected = count_zeros(f, rect)
        except BoundaryProximityError:
            # only the outer count tests the contour's clearance
            continue
        except QuadratureError:
            expected = None
        assert (None if isinstance(counted, Exception) else counted) == expected


def test_a_solve_reads_the_sums_its_box_was_counted_on(monkeypatch):
    # the s_0, s_1 and error estimate that a Hankel solve reads are those
    # its box's count was judged on, bit for bit, though the count read
    # them with other boxes of its round and the solve with other boxes
    read = []
    real = exppoly._moment_zeros

    def spy(f, boxes, sums):
        read.append([(box.count, box.sums, s) for box, s in zip(boxes, sums)])
        return real(f, boxes, sums)

    monkeypatch.setattr(exppoly, "_moment_zeros", spy)
    for name in ("six-terms-13-zeros", "tied-pair", "six-terms-wide"):
        coords, window = SEARCHES[name]
        find_zeros(from_vector(RealVector(coords)), window)
    # solves of several boxes, of unequal counts, so some boxes get more
    # higher sums than they read
    assert any(len({count for count, _, _ in batch}) > 1 for batch in read)
    for batch in read:
        top = 2 * max(count for count, _, _ in batch)
        for _, counted, sums in batch:
            assert len(sums) == top + 1
            assert _bits(sums[:2] + sums[-1:]) == _bits(counted)


E_PLUS_ONE = ((math.e, 1.0), Rectangle(-1.0, 1.0, 1.0, 20.0))
# a box of height 4 holds at most 4 ln 2 / 2pi + 1 = 1.44 zeros of 1 + 2^p;
# one of height 10 pi / ln 2 at most 6, a bound that rounds to
# 5.999999999999999, and a count that meets it is no refusal
TWO_PLUS_ONE_LOW = ((1.0, 2.0), Rectangle(-1.0, 1.0, 1.0, 5.0))
TWO_PLUS_ONE_SIX = ((1.0, 2.0), Rectangle(-1.0, 1.0, 0.5, 0.5 + 10 * math.pi / math.log(2.0)))


@pytest.mark.parametrize(
    "search, winding, count, refusal",
    [
        pytest.param(E_PLUS_ONE, 1.0005, 1, None, id="1.0005-1"),
        pytest.param(E_PLUS_ONE, 0.9995, 1, None, id="0.9995-1"),
        pytest.param(E_PLUS_ONE, 1.002, None, "did not converge", id="1.002-None"),
        pytest.param(E_PLUS_ONE, 0.998, None, "did not converge", id="0.998-None"),
        pytest.param(TWO_PLUS_ONE_LOW, 1.0, 1, None, id="polya-1"),
        pytest.param(TWO_PLUS_ONE_LOW, 2.0, None, "zeros there", id="polya-2-refused"),
        pytest.param(TWO_PLUS_ONE_SIX, 6.0, 6, None, id="polya-6"),
        pytest.param(TWO_PLUS_ONE_SIX, 7.0, None, "zeros there", id="polya-7-refused"),
    ],
)
def test_a_converged_winding_counts_within_1e_3_of_an_integer(
    monkeypatch, search, winding, count, refusal
):
    # with a zero error estimate only the distance to the nearest integer
    # and the Polya bound on the zeros of f in the box decide
    monkeypatch.setattr(
        exppoly,
        "_contour_sums",
        lambda edges, boxes, check_boundary: [(complex(winding), 0j, 0.0) for _ in boxes],
    )
    coords, rect = search
    f = from_vector(RealVector(coords))
    if refusal:
        with pytest.raises(QuadratureError, match=refusal):
            count_zeros(f, rect)
    else:
        assert count_zeros(f, rect) == count


def _assert_walked_counterclockwise(edges: exppoly._Edges, boxes: list) -> None:
    """Each box's panels lie on its edges, and walked the ways
    ``_Edges.walk`` gives they close up (their steps sum to 0) and enclose
    its area (the integral of x dy, over its vertical panels), to rounding."""
    panels, owner, signs = edges.walk(boxes)
    vertical, fixed = edges.vertical[panels], edges.fixed[panels]
    length = edges.hi[panels] - edges.lo[panels]
    for i, box in enumerate(boxes):
        r, mine = box.rect, owner == i
        on_edge = np.where(
            vertical,
            (fixed == r.re_min) | (fixed == r.re_max),
            (fixed == r.im_min) | (fixed == r.im_max),
        )
        assert on_edge[mine].all()
        steps = (signs * length * np.where(vertical, 1j, 1.0))[mine]
        assert abs(steps.sum()) <= 1e-12 * 2.0 * (r.width + r.height)
        x_dy = (signs * fixed * length)[mine & vertical].sum()
        assert abs(x_dy - r.width * r.height) <= 1e-12 * (abs(r.re_min) + abs(r.re_max)) * r.height


def test_every_box_outline_and_cut_build_is_walked_counterclockwise():
    # a box stores no directions: _Edges.walk reads each panel's from the
    # edge it lies on.  Windows wide and tall are cut in rounds, random
    # boxes into 2 to 6 pieces at random fractions after random panels are
    # bisected (as a count bisects them), so cuts run both ways and through
    # straddled panels, several boxes to a batch
    rng = np.random.default_rng(5)
    cuts = collections.Counter()
    for _ in range(40):
        re0, im0 = rng.uniform(-1e3, 1e3, 2)
        width, height = rng.uniform(0.01, 50.0, 2)
        edges = exppoly._Edges(from_vector(RealVector((1.0, 2.0))))
        boxes = [edges.outline(Rectangle(re0, re0 + width, im0, im0 + height))]
        for _ in range(4):
            _assert_walked_counterclockwise(edges, boxes)
            held = np.concatenate([box.panels for box in boxes])
            held = np.unique(edges.resolve(held, held)[0])
            edges.bisect(rng.choice(held, min(8, held.size), replace=False))
            split = rng.random(len(boxes)) < 0.6
            split[rng.integers(len(boxes))] = True
            cut = [
                (box, box.rect.split(np.sort(rng.uniform(0.1, 0.9, rng.integers(1, 6))).tolist()))
                for box, s in zip(boxes, split)
                if s
            ]
            replaced = np.count_nonzero(edges.kid_count[: edges.size])
            pieces = edges.cut(cut)
            cuts["straddled"] += np.count_nonzero(edges.kid_count[: edges.size]) - replaced
            for box, (low, *_) in cut:
                cuts["vertical" if low.re_max < box.rect.re_max else "horizontal"] += 1
            assert len(pieces) == sum(len(rects) for _, rects in cut)
            boxes = [box for box, s in zip(boxes, split) if not s] + pieces
        _assert_walked_counterclockwise(edges, boxes)
    assert min(cuts[k] for k in ("vertical", "horizontal", "straddled")) >= 50, cuts
