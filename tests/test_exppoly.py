import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


MULTIPLE_ZEROS = {
    # (1 + 3^p)^3 and (1 + 2^p)^4: m-fold zeros at (2k+1) pi i / ln base
    "3.0-3-window0-7": (3.0, 3, WINDOW, 7),
    "2.0-4-window1-2": (2.0, 4, Rectangle(-1, 1, 1, 15), 2),
    # (1 + e^p)^2 in a window 2000 wide and 4.5 high: the double zero i pi
    "2.718281828459045-2-window2-1": (math.e, 2, Rectangle(-1000, 1000, 0.5, 5), 1),
    # (1 + 3^p)^5: one 5-fold zero, more than a box is solved for, so it is
    # always found as a leaf
    "3.0-5-window3-1": (3.0, 5, Rectangle(-1, 1, 0.5, 6), 1),
}


@pytest.mark.parametrize(
    "moment_zeros, base, m, window, n",
    [
        # at _MOMENT_ZEROS = 1 every box of several zeros splits, down to a
        # leaf of one m-fold zero
        pytest.param(k, *case, id=name if k == exppoly._MOMENT_ZEROS else f"{name}-split")
        for k in (exppoly._MOMENT_ZEROS, 1)
        for name, case in MULTIPLE_ZEROS.items()
    ],
)
def test_find_zeros_refines_multiple_zeros(monkeypatch, moment_zeros, base, m, window, n):
    monkeypatch.setattr(exppoly, "_MOMENT_ZEROS", moment_zeros)
    zs = find_zeros(from_vector(binomial_vector(base, m)), window)
    assert zs.total == m * n
    assert [z.multiplicity for z in zs.zeros] == [m] * n
    expect = [complex(0, (2 * k + 1) * math.pi / math.log(base)) for k in range(n)]
    for z, e in zip(by_imag(zs.zeros), expect):
        assert z.refined
        assert abs(z.location - e) <= 1e-14 * abs(e)


def assert_same_zeros(a, b) -> None:
    """Equal totals, multiplicities and refined flags; locations within 1e-12 relative."""
    assert a.total == b.total and len(a.zeros) == len(b.zeros)
    for za, zb in zip(a.zeros, b.zeros):
        assert (za.multiplicity, za.refined) == (zb.multiplicity, zb.refined)
        assert abs(za.location - zb.location) <= 1e-12 * abs(za.location)


def test_a_triple_zero_is_solved_from_its_power_sums_without_a_split(monkeypatch):
    # (1 + 3^p)^3: the window holds the triple zero i pi / ln 3 alone; its
    # Hankel matrix has rank 1, and Newton on f'' polishes the solved point
    halves = []
    real = exppoly._count_adaptive
    monkeypatch.setattr(
        exppoly, "_count_adaptive", lambda edges, boxes: halves.extend(boxes) or real(edges, boxes)
    )
    zs = find_zeros(from_vector(binomial_vector(3.0, 3)), Rectangle(-1, 1, 0.5, 5))
    assert zs.total == 3 and not halves
    (zero,) = zs.zeros
    assert zero.multiplicity == 3 and zero.refined
    expect = 1j * math.pi / math.log(3.0)
    assert abs(zero.location - expect) <= 1e-14 * abs(expect)


def hankel_problem(points, multiplicities, noise=1e-9):
    """(s, n, noise) of zeros ``points`` with ``multiplicities``: s_k for k < 2n."""
    n = sum(multiplicities)
    s = [sum(m * complex(u) ** k for u, m in zip(points, multiplicities)) for k in range(2 * n)]
    return tuple(s), n, noise


HANKEL_PROBLEMS = [
    hankel_problem([0.3 + 0.2j, -0.4j], [1, 1]),
    hankel_problem([0.1, -0.5 + 0.1j, 0.2 - 0.3j], [1, 1, 1]),
    hankel_problem([0.25j], [3]),  # one triple point: a rank-1 Hankel of size 3
    hankel_problem([0.5, -0.5], [2, 1]),
    hankel_problem([-0.1 + 0.6j, 0.7j], [1, 1]),
    ((math.nan,) * 4, 2, 1e-9),  # a count whose sums overflowed
    hankel_problem([0.2, -0.2, 0.4j, -0.3j], [1, 1, 1, 1]),
]


def solve_one(s, n, noise):
    """``_hankel_solve`` of one problem (s, n, noise), as a stack of one."""
    assert len(s) == 2 * n
    (solution,) = exppoly._hankel_solve(np.array([s], dtype=complex), np.array([noise]))
    return solution


def _solution_bits(solution):
    if solution is None:
        return None
    points, multiplicities = solution
    return [(p.real.hex(), p.imag.hex()) for p in points], multiplicities


def test_a_hankel_solve_gives_each_box_its_points_and_multiplicities():
    solved = [solve_one(*problem) for problem in HANKEL_PROBLEMS]
    assert [None if s is None else sorted(s[1]) for s in solved] == [
        [1, 1], [1, 1, 1], [3], [1, 2], [1, 1], None, [1, 1, 1, 1]
    ]
    for (s, n, _), solution in zip(HANKEL_PROBLEMS, solved):
        if solution is not None:
            points, multiplicities = solution
            moments = [sum(m * u**k for u, m in zip(points, multiplicities)) for k in range(2 * n)]
            assert np.allclose(moments, s, atol=1e-9)


def test_sums_that_are_not_finite_give_no_solve():
    for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
        s, n, noise = HANKEL_PROBLEMS[0]
        assert solve_one((bad,) + s[1:], n, noise) is None


def test_a_rank_0_hankel_matrix_gives_no_solve():
    # every singular value under n * noise: no distinct point to solve for
    s, n, _ = HANKEL_PROBLEMS[0]
    assert solve_one(s, n, 1e3) is None


def solve_stacks(problems):
    """``_hankel_solve`` of ``problems``, those of each count n as one stack."""
    out = [None] * len(problems)
    for n in {n for _, n, _ in problems}:
        rows = [i for i, (_, m, _) in enumerate(problems) if m == n]
        s = np.array([problems[i][0] for i in rows], dtype=complex)
        noise = np.array([problems[i][2] for i in rows])
        for i, solution in zip(rows, exppoly._hankel_solve(s, noise)):
            out[i] = solution
    return out


def test_a_stacked_hankel_solve_gives_each_row_the_bits_of_its_own_solve():
    # counts 2 to 4 with every rank (simple, double and triple points,
    # points closer than the noise) and a row that is not finite: each row
    # of a stack solves to the bits it solves to alone
    rng = random.Random(7)
    problems = list(HANKEL_PROBLEMS)
    for n in (2, 3, 4):
        for _ in range(12):
            parts = []
            while sum(parts) < n:
                parts.append(rng.randint(1, n - sum(parts)))
            points = [complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)) for _ in parts]
            problems.append(hankel_problem(points, parts, noise=rng.choice((1e-9, 1e-3))))
    alone = [_solution_bits(solve_one(*problem)) for problem in problems]
    stacked = [_solution_bits(solution) for solution in solve_stacks(problems)]
    assert stacked == alone
    assert sum(solution is not None for solution in alone) > len(problems) // 2


def test_a_linalg_error_refuses_only_its_own_stack(monkeypatch):
    # of HANKEL_PROBLEMS only the second has three distinct points; it is in
    # the stack of count 3, with the third and the fourth
    real = np.linalg.eigvals

    def eigvals(pencil):
        if pencil.shape[-2:] == (3, 3):
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        return real(pencil)

    expected = [_solution_bits(s) for s in solve_stacks(HANKEL_PROBLEMS)]
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    got = [_solution_bits(s) for s in solve_stacks(HANKEL_PROBLEMS)]
    assert got[1:4] == [None] * 3 and None not in expected[1:4]
    assert got[:1] + got[4:] == expected[:1] + expected[4:]


def test_a_box_whose_solve_fails_splits_and_finds_the_same_zeros(monkeypatch):
    # e^p + 1 has six zeros here; with every Hankel solve refused, each box
    # of 2 to _MOMENT_ZEROS zeros splits as a box of more zeros does
    f = from_vector(RealVector((math.e, 1.0)))
    solved = find_zeros(f, WINDOW)
    refused = []
    monkeypatch.setattr(
        exppoly,
        "_hankel_solve",
        lambda s, noise: refused.extend([s.shape[1] // 2] * len(s)) or [None] * len(s),
    )
    split = find_zeros(f, WINDOW)
    assert refused and all(2 <= n <= exppoly._MOMENT_ZEROS for n in refused)
    assert_same_zeros(solved, split)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    st.floats(-2.0, 2.0),
    st.lists(st.tuples(st.floats(0.3, 1.5), st.integers(1, 3)), min_size=1, max_size=5),
)
def test_solving_boxes_from_power_sums_finds_the_zeros_splitting_finds(lowest, steps):
    # a 2-6 term sum whose exponents lie 0.3-1.5 apart, so the window holds zeros
    betas = np.cumsum([lowest] + [step for step, _ in steps]).tolist()
    f = ExpPoly(tuple(zip(betas, [1] + [m for _, m in steps])))
    solved = find_zeros(f, exppoly.DEFAULT_WINDOW)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exppoly, "_MOMENT_ZEROS", 1)  # every box of several zeros splits
        split = find_zeros(f, exppoly.DEFAULT_WINDOW)
    assert_same_zeros(solved, split)


@pytest.mark.parametrize("d", [1e-7, 1e-6, 1e-4, 1e-3])
def test_near_double_zeros_come_out_the_same_solved_or_split(d):
    # 1 + 2^p + (2 (1 + d))^p + 4^p is (1 + 2^p)^2 but for one exponent d
    # off: each double zero splits into two simple zeros ~sqrt(d) apart.  A
    # solved zero starts farther off than a small leaf's centroid; stopped
    # at the first point under the 1e-12 test, the two searches put a zero
    # up to 2.2e-11 relative apart.  At d = 1e-9 the pair is too
    # ill-conditioned for this bound: they agree to 1.06e-12
    f = from_vector(RealVector((1.0, 2.0, 2.0 * (1 + d), 4.0)))
    solved = find_zeros(f, exppoly.DEFAULT_WINDOW)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exppoly, "_MOMENT_ZEROS", 1)
        split = find_zeros(f, exppoly.DEFAULT_WINDOW)
    assert_same_zeros(solved, split)


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
    # converges between them, where |f| is far above 1e-12 (the window is
    # that leaf: it is not solved from its power sums, and no split counts)
    monkeypatch.setattr(exppoly, "_MOMENT_ZEROS", 1)
    monkeypatch.setattr(
        exppoly,
        "_count_adaptive",
        lambda f, rects: [QuadratureError("split count refused") for _ in rects],
    )
    with pytest.raises(QuadratureError, match="counts its 2 zeros"):
        find_zeros(f, window)


def scalar_newton_polish(f, z0, rect, order):
    """The one-point Newton rule that ``_newton_polish`` applies to each
    point of a batch, with one kernel call per step: the reference."""
    z = z0
    reach = 2.0 * max(rect.width, rect.height)
    converged = False
    for _ in range(exppoly._MAX_NEWTON_ITERS):
        _, s_val, ds_val, bound = exppoly._parts(f, z, order)
        s, ds = complex(s_val[0]), complex(ds_val[0])
        if abs(s) <= exppoly._NEWTON_REL_TARGET * float(bound[0]):
            converged = True
            if ds != 0:
                z_new = z - s / ds
                _, s_val, _, bound = exppoly._parts(f, z_new, order)
                if rect.contains(z_new) and abs(s_val[0]) <= exppoly._NEWTON_REL_TARGET * bound[0]:
                    z = z_new
            break
        if ds == 0 or not (math.isfinite(s.real) and math.isfinite(s.imag)):
            break
        step = s / ds
        z_new = z - step
        if abs(z_new - z0) > reach:
            break
        z = z_new
        if abs(step) <= 1e-17 * max(1.0, abs(z)):
            break
    if not rect.contains(z):
        return z0, False
    for k in range(order if converged else order + 1):
        _, s_val, _, bound = exppoly._parts(f, z, k)
        if not abs(s_val[0]) / bound[0] <= exppoly._NEWTON_REL_TARGET:
            return z0, False
    return z, True


def test_a_newton_batch_polishes_each_point_as_it_would_alone(kernel_calls):
    # (1 + 2^p)^2 (1 + 3^p): double zeros at (2k + 1) pi i / ln 2 (4.53i,
    # 13.6i) and simple zeros at (2k + 1) pi i / ln 3 (2.86i, 8.58i, 14.3i)
    f = from_vector(RealVector((1.0, 2.0, 2.0, 4.0, 3.0, 6.0, 6.0, 12.0)))
    near = 1e-3 + 1e-3j
    batch = [
        (1j * math.pi / math.log(3.0) + near, Rectangle(-1, 1, 2, 3.5), 0),
        (3j * math.pi / math.log(3.0) - near, Rectangle(-1, 1, 7.5, 9.5), 0),
        # the double zero, by Newton on f'
        (1j * math.pi / math.log(2.0) + near, Rectangle(-1, 1, 4, 5), 1),
        # a first step far longer than twice the box's side
        (complex(0.5005, 6.0005), Rectangle(0.5, 0.501, 6.0, 6.001), 0),
        # a box that holds no zero: Newton ends on a zero outside it
        (6.5j, Rectangle(-1, 1, 5.5, 7.5), 0),
    ]
    alone = [scalar_newton_polish(f, *entry) for entry in batch]
    assert [refined for _, refined in alone] == [True, True, True, False, False]
    for entry, reference in zip(batch, alone):
        assert exppoly._newton_polish(f, [entry]) == [reference]
    kernel_calls.clear()
    together = exppoly._newton_polish(f, batch)
    for (z, refined), (z_alone, refined_alone) in zip(together, alone):
        assert refined == refined_alone
        assert abs(z - z_alone) <= 1e-15 * abs(z_alone)
    # one call per iteration per order: 22 on f, as many as the longest run
    # alone (the start in the box without a zero), 5 on f', then one test
    # of f at the double zero and at the start that left its reach
    assert len(kernel_calls) == 22 + 5 + 1


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


def test_an_unrefined_zero_placed_outside_its_box_fails_the_search(monkeypatch):
    # Newton cannot refine the zero of 1 + 2^p near Im 1e15 + 6.5, so it
    # would be reported at its box's centroid; one outside the box is refused
    f = from_vector(RealVector((1.0, 2.0)))
    window = Rectangle(-1, 1, 1e15, 1e15 + 10)
    (zero,) = find_zeros(f, window).zeros
    assert not zero.refined and window.contains(zero.location)
    monkeypatch.setattr(exppoly, "_centroid", lambda rect, sums: complex(0, rect.im_max + 1))
    with pytest.raises(QuadratureError, match="lies outside"):
        find_zeros(f, window)


def test_find_zeros_integrates_no_box_twice(monkeypatch, kernel_calls):
    # no box is integrated twice, and no contour node is evaluated twice:
    # a half takes its parent's panels and both halves share their cut
    seen = []
    real = exppoly._contour_sums

    def spy(edges, boxes, *check_boundary):
        seen.extend(box.rect for box in boxes)
        return real(edges, boxes, *check_boundary)

    monkeypatch.setattr(exppoly, "_contour_sums", spy)
    for coords, total in (((math.e, 1.0), 6), ((1.0, 40.0), 23)):
        seen.clear()
        kernel_calls.clear()
        zs = find_zeros(from_vector(RealVector(coords)), exppoly.DEFAULT_WINDOW)
        assert zs.total == total
        assert len(seen) == len(set(seen))
        calls = zip(kernel_calls, kernel_calls.callers)
        nodes = np.concatenate([c for c, who in calls if who == "evaluate_panels"])
        assert np.unique(nodes).size == nodes.size


def test_halves_reuse_their_parents_panels(kernel_calls):
    # 1 + 40^p has 23 zeros here, so boxes split: 17,460 contour
    # term-points when each half integrated its whole perimeter, 5,400 once
    # a half took its parent's panels and integrated only its cut and the
    # pieces of the panels the cut straddles, and 5,760 now that the window
    # is cut into 8 pieces in one round
    zs = find_zeros(from_vector(RealVector((1.0, 40.0))), exppoly.DEFAULT_WINDOW)
    assert zs.total == 23
    contour = [c for c, who in zip(kernel_calls, kernel_calls.callers) if who == "evaluate_panels"]
    assert 2 * sum(c.size for c in contour) <= 17_460 // 2


def test_the_window_is_integrated_once(kernel_calls):
    # 1 + 2^p has 4 zeros here, solved from the window's power sums, which
    # come from the panels its count converged: one contour call of 108
    # base panels (3,240 term-points) and two Newton calls, where the
    # window was integrated a second time for its sums (4 calls, 6,480)
    zs = find_zeros(from_vector(RealVector((1.0, 2.0))), exppoly.DEFAULT_WINDOW)
    assert zs.total == 4 and all(z.refined for z in zs.zeros)
    assert kernel_calls.callers == ["evaluate_panels", "_newton_polish", "_newton_polish"]
    assert 2 * kernel_calls[0].size == 3_240


def test_an_off_midline_first_cut_keeps_midline_zeros_cheap(monkeypatch, kernel_calls):
    # 1 + 2^p has its 2 zeros here on Re p = 0, the midline of a window
    # wider than tall, so the window is cut by a vertical line, first at
    # 0.45 of its width, Re -1, clear of both zeros.  A cut at the midline
    # fails and costs kernel calls.  With every box of several zeros split,
    # not solved from its power sums: 5 calls, the window's count, two
    # count rounds of halves, and one Newton step and the step past the
    # test, each taken by both zeros in one call (22 when the midline is
    # tried first)
    monkeypatch.setattr(exppoly, "_MOMENT_ZEROS", 1)
    halves = []
    count = exppoly._count_adaptive
    monkeypatch.setattr(
        exppoly,
        "_count_adaptive",
        lambda edges, boxes: halves.extend(b.rect for b in boxes) or count(edges, boxes),
    )
    zs = find_zeros(from_vector(RealVector((1.0, 2.0))), Rectangle(-10.0, 10.0, 0.5, 15.0))
    assert zs.total == 2 and all(abs(z.location.real) < 1e-12 for z in zs.zeros)
    assert halves and not any(0.0 in (r.re_min, r.re_max) for r in halves)
    assert len(kernel_calls) <= 8


def test_find_zeros_makes_one_kernel_call_per_round_of_a_level(kernel_calls):
    # e^p + 1 has 6 zeros here; every box split in a count round shares each
    # quadrature round (41 calls with one per box, 21 while new boxes also
    # sampled candidate cut lines).  Only the window splits, and its halves
    # of 2 to 4 zeros are solved from their power sums, all six zeros
    # polished together: 4 calls, the window's count, the halves' count,
    # and one Newton step and the step past the test (14 with a Newton call
    # per zero and step)
    zs = find_zeros(from_vector(RealVector((math.e, 1.0))), WINDOW)
    assert zs.total == 6 and all(z.refined for z in zs.zeros)
    assert len(kernel_calls) <= 6


def test_newton_makes_one_kernel_call_per_iteration_of_a_count_round(kernel_calls):
    # 1 + 40^p has 23 zeros here on Re p = 0.  The window is cut into 8
    # pieces of 2 to 4 zeros; all 23 are solved from power sums in that
    # count round and polished in one batch: 3 Newton calls, of 23, 23 and
    # 8 points (57 with a call per zero and step)
    zs = find_zeros(from_vector(RealVector((1.0, 40.0))), exppoly.DEFAULT_WINDOW)
    assert zs.total == 23 and all(z.refined for z in zs.zeros)
    assert kernel_calls.callers.count("_newton_polish") <= 4


@pytest.mark.parametrize(
    "rect, wide",
    [
        pytest.param(Rectangle(-1.0, 1.0, 0.5, 40.0), False, id="tall"),
        pytest.param(Rectangle(-10.0, 10.0, 0.5, 15.0), True, id="wide"),
        pytest.param(Rectangle(2.0, 5.0, -1.0, 2.0), True, id="square"),
    ],
)
@pytest.mark.parametrize("fraction", [0.45, 0.55, 0.35])
def test_a_box_is_cut_across_its_longer_side_at_the_fraction(rect, wide, fraction):
    # a wide box (or a square) by vertical lines, a tall one by horizontal
    # lines: in two at the fraction of the cut side from its low end, and
    # into k pieces at (j + a) / k with the offset a of that fraction.  The
    # pieces tile the box, and adjacent ones share the very float of their
    # cut
    offset = exppoly._CUT_FRACTIONS[[0.45, 0.55, 0.35].index(fraction)]
    low, side = (rect.re_min, rect.width) if wide else (rect.im_min, rect.height)
    for k in range(2, 17):
        fractions = [(j + offset) / k for j in range(1, k)]
        pieces = rect.split(fractions)
        ends = [low, *(low + t * side for t in fractions), rect.re_max if wide else rect.im_max]
        assert len(pieces) == k
        for piece, a, b in zip(pieces, ends, ends[1:]):
            if wide:
                assert piece == Rectangle(a, b, rect.im_min, rect.im_max)
            else:
                assert piece == Rectangle(rect.re_min, rect.re_max, a, b)
        for below, above in zip(pieces, pieces[1:]):
            assert (below.re_max == above.re_min) if wide else (below.im_max == above.im_min)


def test_the_two_piece_cuts_are_the_halving_fractions():
    # a box of 2 to 6 zeros is cut in two, at 0.45, else 0.55, else 0.35 of
    # its longer side, to the bit
    for n in range(2, 7):
        assert [exppoly._cut_fractions(n, k) for k in range(3)] == [[0.45], [0.55], [0.35]]
    assert len(exppoly._cut_fractions(7, 0)) == 2
    assert len(exppoly._cut_fractions(46, 0)) == len(exppoly._cut_fractions(10**6, 0)) == 15


def test_a_split_search_cuts_at_fixed_fractions_and_evaluates_f_only_on_contours(
    monkeypatch, kernel_calls
):
    # 1 + 40^p has its zeros up Re p = 0, 23 in the default window and 9 in
    # the wide one, so boxes of more than 4 zeros split: the tall window
    # across its height, the wide window and its middle piece across their
    # width.  A box of n zeros is cut into k = min(16, max(2, ceil(n / 3)))
    # pieces at (j + a) / k of its longer side, with a one of -0.1, 0.1 and
    # -0.3; the pieces are the boxes the next count round counts, and f is
    # evaluated only by the contour quadrature and by Newton: no cut is
    # placed by sampling f
    cut, counted = [], []
    real_cut, real_count = exppoly._Edges.cut, exppoly._count_adaptive

    def spy_cut(edges, cuts):
        cut.extend((box.rect, box.count, pieces) for box, pieces in cuts)
        return real_cut(edges, cuts)

    def spy_count(edges, boxes):
        counted.extend(b.rect for b in boxes)
        return real_count(edges, boxes)

    monkeypatch.setattr(exppoly._Edges, "cut", spy_cut)
    monkeypatch.setattr(exppoly, "_count_adaptive", spy_count)
    f = from_vector(RealVector((1.0, 40.0)))
    for window, total in ((exppoly.DEFAULT_WINDOW, 23), (Rectangle(-20.0, 20.0, 0.5, 15.0), 9)):
        zs = find_zeros(f, window)
        assert zs.total == total and sum(z.multiplicity for z in zs.zeros) == total
    assert set(kernel_calls.callers) == {"evaluate_panels", "_newton_polish"}
    assert counted == [piece for _, _, pieces in cut for piece in pieces]
    orientations = set()
    for box, n, pieces in cut:
        k = min(16, max(2, math.ceil(n / 3)))
        wide = box.width >= box.height
        orientations.add(wide)
        assert len(pieces) == k
        if wide:
            assert all((p.im_min, p.im_max) == (box.im_min, box.im_max) for p in pieces)
            ats = [p.re_max for p in pieces[:-1]]
            fractions = [(at - box.re_min) / box.width for at in ats]
        else:
            assert all((p.re_min, p.re_max) == (box.re_min, box.re_max) for p in pieces)
            ats = [p.im_max for p in pieces[:-1]]
            fractions = [(at - box.im_min) / box.height for at in ats]
        assert min(
            max(abs(t - (j + a) / k) for j, t in enumerate(fractions, 1))
            for a in (-0.1, 0.1, -0.3)
        ) <= 1e-9
    assert orientations == {True, False}


def test_a_window_of_23_zeros_is_cut_into_8_solved_pieces_in_one_round(monkeypatch):
    # 1 + 40^p has 23 zeros over the default window: one count round of 8
    # pieces of 2 to 4 zeros, each solved from its power sums (halving took
    # three rounds, of 2, 4 and 8 boxes)
    rounds, solved = [], []
    real_count, real_solve = exppoly._count_adaptive, exppoly._moment_zeros

    def spy_count(edges, boxes):
        rounds.append(len(boxes))
        return real_count(edges, boxes)

    def spy_solve(edges, boxes, sums):
        out = real_solve(edges, boxes, sums)
        solved.extend(zeros is not None for zeros in out)
        return out

    monkeypatch.setattr(exppoly, "_count_adaptive", spy_count)
    monkeypatch.setattr(exppoly, "_moment_zeros", spy_solve)
    zs = find_zeros(from_vector(RealVector((1.0, 40.0))), exppoly.DEFAULT_WINDOW)
    assert zs.total == 23 and all(z.refined for z in zs.zeros)
    assert rounds == [8] and solved == [True] * 8


def test_a_box_is_cut_into_at_most_16_pieces(monkeypatch):
    # 1 + 1e30^p has 435 zeros over the default window: the window is cut
    # into exactly 16 pieces, and no round cuts a box into more
    cut = []
    real = exppoly._Edges.cut

    def spy(edges, cuts):
        cut.append([len(pieces) for _, pieces in cuts])
        return real(edges, cuts)

    monkeypatch.setattr(exppoly._Edges, "cut", spy)
    zs = find_zeros(from_vector(RealVector((1.0, 1e30))), exppoly.DEFAULT_WINDOW)
    assert zs.total == 435
    assert cut[0] == [16] and max(max(sizes) for sizes in cut) == 16


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
    # only the outer window counts; every split count fails, and no box is
    # solved from its power sums
    monkeypatch.setattr(exppoly, "_MOMENT_ZEROS", 1)
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
    # no zero there, so the window is no triple zero (split path only)
    monkeypatch.setattr(exppoly, "_MOMENT_ZEROS", 1)
    monkeypatch.setattr(
        exppoly,
        "_count_adaptive",
        lambda f, rects: [QuadratureError("split count refused") for _ in rects],
    )
    f = from_vector(RealVector((1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 4.0)))
    with pytest.raises(QuadratureError, match="no subdivision .* counts its 3 zeros"):
        find_zeros(f, Rectangle(-1, 1, 0.5, 25))


def test_newton_refuses_a_zero_of_f_and_f2_where_f1_does_not_vanish():
    # the zeros of the sum above: Newton on f'' reaches the middle one, a
    # zero of f and f'' but not of f', and so no triple zero; on f it is
    # a refined simple zero.  The search above fails before Newton, as a
    # 3-term sum has no triple zero, so Newton's own test is checked here.
    f = from_vector(RealVector((1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 4.0)))
    rect = Rectangle(-1, 1, 0.5, 25)
    start = 3j * math.pi / math.log(2.0) + 1e-3
    ((_, refined),) = exppoly._newton_polish(f, [(start, rect, 2)])
    assert not refined
    ((z, refined),) = exppoly._newton_polish(f, [(start, rect, 0)])
    assert refined and abs(z - 3j * math.pi / math.log(2.0)) <= 1e-14 * abs(z)


def test_a_leaf_of_more_zeros_than_terms_fails_before_newton():
    # a sum of t terms has no zero of multiplicity t or more; this leaf of
    # 287 zeros of a 2-term sum once went to Newton on f^(286), which
    # overflowed (a RuntimeWarning, an error here)
    f = from_vector(RealVector((5e-324, 1.0)))
    window = Rectangle(-1, 1, 10.478440625000001, 12.898062500000002)
    with pytest.raises(QuadratureError, match="no subdivision .* counts its 287 zeros"):
        find_zeros(f, window)


def test_a_leaf_of_more_zeros_than_terms_fails_in_the_round_it_forms(monkeypatch):
    # over the default window the 4,680 zeros of this 2-term sum end in a
    # box of 293 zeros whose pieces none of its three cuts counts; the
    # search fails in that round, so its last count round holds that box's
    # pieces (not after every other box's rounds have run)
    f = from_vector(RealVector((5e-324, 1.0)))
    rounds = []
    real = exppoly._Edges.cut

    def spy(edges, cuts):
        rounds.append({str(box.rect): pieces for box, pieces in cuts})
        return real(edges, cuts)

    monkeypatch.setattr(exppoly._Edges, "cut", spy)
    with pytest.raises(QuadratureError, match="no subdivision of .* counts its 293 zeros") as error:
        find_zeros(f, exppoly.DEFAULT_WINDOW)
    failed = str(error.value).split(" counts")[0].removeprefix("no subdivision of ")
    # the box was cut at each of its three offsets in the last three rounds
    tries = [cut[failed] for cut in rounds[-3:]]
    assert [len(pieces) for pieces in tries] == [16] * 3 and len(set(tries)) == 3
    for pieces in tries:
        whole = Rectangle(pieces[0].re_min, pieces[-1].re_max, pieces[0].im_min, pieces[-1].im_max)
        assert str(whole) == failed


def test_a_box_whose_first_split_fails_splits_at_its_next_point(monkeypatch):
    # e^p + 1 has its six zeros here at (2k + 1) pi i; the window's first
    # cut is forced through the zero 3 pi i, so its pieces are refused and
    # the whole window is cut again at its next offset
    f = from_vector(RealVector((math.e, 1.0)))
    real_split, real_count = Rectangle.split, exppoly._count_adaptive
    tried, refused = [], []

    def through_a_zero_first(rect, fractions):
        if rect == WINDOW:
            tried.append(fractions)
            if len(tried) == 1:
                at = 3 * math.pi
                return Rectangle(-1.0, 1.0, 0.5, at), Rectangle(-1.0, 1.0, at, 40.0)
        return real_split(rect, fractions)

    def spy(edges, boxes):
        counted = real_count(edges, boxes)
        refused.extend(b.rect for b, c in zip(boxes, counted) if isinstance(c, Exception))
        return counted

    monkeypatch.setattr(Rectangle, "split", through_a_zero_first)
    monkeypatch.setattr(exppoly, "_count_adaptive", spy)
    zs = find_zeros(f, WINDOW)
    assert zs.window == WINDOW
    assert tried == [exppoly._cut_fractions(6, 0), exppoly._cut_fractions(6, 1)]
    assert refused and all(3 * math.pi in (r.im_min, r.im_max) for r in refused)
    assert zs.total == 6 and all(z.multiplicity == 1 and z.refined for z in zs.zeros)
    for k, z in enumerate(zs.zeros):
        assert abs(z.location - 1j * math.pi * (2 * k + 1)) <= 1e-12 * abs(z.location)
