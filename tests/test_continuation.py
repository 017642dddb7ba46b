import cmath
import math

import numpy as np
import pytest

from pnormcert import continuation, exppoly
from pnormcert import (
    ClearanceError,
    ContinuationError,
    ExpPoly,
    InvalidInputError,
    MonodromyMismatchError,
    Path,
    RealVector,
    Rectangle,
    Zero,
    build_loop_path,
    continue_log,
    evaluate,
    evaluate_log,
    find_zeros,
    from_vector,
    loop_monodromy,
    pnorm_at,
    pnorm_value,
)

TAU = 2 * math.pi


def square_loop(center: complex, half: float) -> Path:
    c = center
    return Path(
        (
            c + half,
            c + half + half * 1j,
            c - half + half * 1j,
            c - half - half * 1j,
            c + half - half * 1j,
            c + half,
        )
    )


def test_path_validation():
    with pytest.raises(InvalidInputError):
        Path((1 + 0j,))
    with pytest.raises(InvalidInputError):
        Path((1 + 0j, 0j, 2 + 0j))
    with pytest.raises(InvalidInputError):
        Path((1 + 0j, complex(math.nan, 0)))
    p = Path((2 + 0j, 2 + 0j, 3 + 0j))  # duplicates allowed
    assert p.start == 2 and p.end == 3


def test_pnorm_known_values():
    v = RealVector((3.0, 4.0))
    assert abs(pnorm_at(v, 2.0) - 5.0) <= 1e-14
    assert pnorm_at(RealVector((1.0, 1.0)), 1.0) == pytest.approx(2.0, rel=1e-15)
    assert pnorm_at(v, math.inf) == 4.0
    with pytest.raises(InvalidInputError):
        pnorm_at(v, 0.0)
    with pytest.raises(InvalidInputError):
        pnorm_at(v, -1.0)
    with pytest.raises(InvalidInputError):
        pnorm_at(v, math.nan)


def test_pnorm_monotone_to_max():
    v = RealVector((3.0, -4.0, 1.0))
    ps = [1.0, 2.0, 4.0, 16.0, 256.0]
    vals = [pnorm_at(v, p) for p in ps]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] >= 4.0


def test_continue_log_constant_sum():
    f = ExpPoly(((0.0, 2),))
    end = continue_log(f, Path((2 + 0j, 1 + 3j, 5 + 0j)))
    assert end.p == 5
    assert abs(end.logf - math.log(2.0)) <= 1e-12
    assert abs(end.norm_value - 2.0 ** (1 / 5)) <= 1e-12


def test_continue_log_winds_once_around_simple_zero():
    f = ExpPoly(((0.0, 1), (1.0, 1)))
    loop = square_loop(complex(0.0, math.pi), 0.5)
    start_log = evaluate_log(f, loop.start)
    end = continue_log(f, loop)
    assert end.p == loop.end
    assert abs(end.logf - (start_log + TAU * 1j)) <= 1e-8


def test_continue_log_no_zero_loop_returns_start():
    f = ExpPoly(((0.0, 1), (1.0, 1)))
    loop = square_loop(complex(0.0, 2 * math.pi), 0.5)  # between pi and 3pi
    end = continue_log(f, loop)
    assert abs(end.logf - evaluate_log(f, loop.start)) <= 1e-8


def test_continue_log_end_state_invariant():
    # exp(logf) must reproduce f at the path end for prefixes of a long path
    f = ExpPoly(((-0.5, 1), (0.4, 2), (1.2, 1)))
    pts = (1 + 0j, 1 + 3j, 4 + 3j, 4 + 0.5j, 2 + 0.5j)
    for k in range(2, len(pts) + 1):
        end = continue_log(f, Path(pts[:k]))
        val = evaluate(f, end.p)
        assert abs(cmath.exp(end.logf) - val) <= 1e-10 * abs(val)
        assert abs(end.norm_value - cmath.exp(end.logf / end.p)) <= 1e-12 * abs(
            end.norm_value
        )


def test_continue_log_homotopy_invariance():
    # two paths with the same endpoints on the same side of the zeros
    f = ExpPoly(((0.0, 1), (1.0, 1)))
    a, b = 1 + 0j, 1 + 2j
    direct = continue_log(f, Path((a, b)))
    dogleg = continue_log(f, Path((a, 2 + 0j, 2 + 2j, b)))
    assert abs(direct.logf - dogleg.logf) <= 1e-8


def test_continue_log_loop_additivity():
    f = ExpPoly(((0.0, 1), (1.0, 1)))
    once = square_loop(complex(0.0, math.pi), 0.4)
    twice = Path(once.points + once.points[1:])
    start_log = evaluate_log(f, once.start)
    d1 = continue_log(f, once).logf - start_log
    d2 = continue_log(f, twice).logf - start_log
    assert abs(d2 - 2 * d1) <= 1e-8
    assert abs(d1 - TAU * 1j) <= 1e-8


def test_continue_log_conjugate_symmetry():
    f = ExpPoly(((0.0, 1), (1.0, 1)))
    up = Path((2 + 0j, 2 + 2j, 1 + 2j))
    down = Path(tuple(p.conjugate() for p in up.points))
    su = continue_log(f, up)
    sd = continue_log(f, down)
    assert abs(su.logf - sd.logf.conjugate()) <= 1e-8


def test_continue_log_rejects_path_through_zero(monkeypatch):
    f = ExpPoly(((0.0, 1), (1.0, 1)))
    z = complex(0.0, math.pi)
    calls = []
    real = exppoly._parts
    monkeypatch.setattr(
        exppoly, "_parts", lambda f, ps, *a: calls.append(np.size(ps)) or real(f, ps, *a)
    )
    with pytest.raises(ContinuationError) as err:
        continue_log(f, Path((1 + z, -1 + z)))
    assert err.value.point is not None
    # one kernel call for the round that meets the zero: its nodes before
    # the zero are not evaluated again
    assert calls == [9]


def test_continue_log_near_zero_crossing_reports_point():
    # passing within 1e-14 of a zero drives |f| under the evaluation floor
    f = ExpPoly(((0.0, 1), (1.0, 1)))
    z = complex(1e-14, math.pi)
    with pytest.raises(ContinuationError) as err:
        continue_log(f, Path((z - 1, z + 1)))
    assert abs(err.value.point - z) < 0.1


def test_continue_pnorm_real_segment_matches_direct():
    v = RealVector((3.0, 4.0))
    f = from_vector(v)
    assert abs(continue_log(f, Path((2 + 0j, 2 + 0j))).norm_value - 5.0) <= 1e-12
    end = continue_log(f, Path((2 + 0j, 5 + 0j))).norm_value
    assert abs(end - pnorm_at(v, 5.0)) <= 1e-10


def test_continue_pnorm_loop_flips_sign_for_simple_zero():
    # around a simple zero log f gains 2 pi i, so exp(log f / p) at base 2
    # gains exp(pi i) = -1
    f = ExpPoly(((0.0, 1), (1.0, 1)))
    start = pnorm_value(f, 2.0)
    loop = build_loop_path(complex(0.0, math.pi), 2.0, 1.0)
    assert abs(continue_log(f, loop).norm_value + start) <= 1e-8 * start
    double = build_loop_path(complex(0.0, math.pi), 2.0, 1.0, turns=2)
    assert abs(continue_log(f, double).norm_value - start) <= 1e-8 * start


def test_build_loop_path_geometry():
    z = complex(0.0, math.pi)
    base, r = 2.0, 1.0
    loop = build_loop_path(z, base, r)
    pts = np.array(loop.points)
    assert loop.start == complex(base, 0.0)
    assert loop.end == complex(base, 0.0)
    # never closer than r to the target, never at the origin
    assert np.min(np.abs(pts - z)) >= r - 1e-12
    assert np.min(np.abs(pts)) > 0
    on_circle = np.abs(np.abs(pts - z) - r) <= 1e-12
    assert on_circle.sum() >= 72  # full circle in steps of at most 5 degrees
    both = on_circle[:-1] & on_circle[1:]
    arc_steps = np.abs(np.diff(pts))[both]
    assert np.max(arc_steps) <= 2 * r * math.sin(math.radians(5) / 2) + 1e-9

    low = build_loop_path(z.conjugate(), base, r)
    assert np.min(np.abs(np.array(low.points) - z.conjugate())) >= r - 1e-12


def test_build_loop_path_validation():
    z = complex(0.0, math.pi)
    with pytest.raises(InvalidInputError):
        build_loop_path(z, 2.0, 0.0)
    with pytest.raises(InvalidInputError):
        build_loop_path(z, 2.0, 4.0)  # circle would cross the real axis
    with pytest.raises(InvalidInputError):
        build_loop_path(z, -2.0, 1.0)
    with pytest.raises(InvalidInputError):
        build_loop_path(z, 2.0, 1.0, turns=0)


def test_reversed_loop_measures_inverse_factor():
    f = ExpPoly(((0.0, 1), (1.0, 1)))
    z = complex(0.0, math.pi)
    base = 2.0
    start_log = evaluate_log(f, complex(base, 0.0))
    fwd = build_loop_path(z, base, 1.0)
    rev = Path(fwd.points[::-1])  # the clockwise loop
    mf = cmath.exp((continue_log(f, fwd).logf - start_log) / base)
    mr = cmath.exp((continue_log(f, rev).logf - start_log) / base)
    assert abs(mf * mr - 1.0) <= 1e-8
    assert abs(mf - cmath.exp(TAU * 1j / base)) <= 1e-8


def test_loop_monodromy_simple_zero():
    f = from_vector(RealVector((math.e, 1.0)))
    z = complex(0.0, math.pi)
    for base in (2.0, 2.7, 4.0):
        measured, predicted = loop_monodromy(f, (z, 1), base, 1.0)
        assert predicted == cmath.exp(TAU * 1j / base)
        assert abs(measured - predicted) <= 1e-6 * abs(predicted)


def test_loop_monodromy_double_zero():
    f = from_vector(RealVector((1.0, 2.0, 2.0, 4.0)))  # (1 + 2^p)^2
    z = complex(0.0, math.pi / math.log(2.0))
    measured, predicted = loop_monodromy(f, (z, 2), 2.0, 1.0)
    assert predicted == cmath.exp(TAU * 1j * 2 / 2.0)
    assert abs(measured - predicted) <= 1e-6


def test_loop_monodromy_flags_wrong_multiplicity():
    f = from_vector(RealVector((math.e, 1.0)))
    z = complex(0.0, math.pi)
    with pytest.raises(MonodromyMismatchError):
        loop_monodromy(f, (z, 2), 2.0, 1.0)  # simple zero claimed double


def test_loop_monodromy_validation():
    f = from_vector(RealVector((math.e, 1.0)))
    z = complex(0.0, math.pi)
    with pytest.raises(InvalidInputError):
        loop_monodromy(f, (z, 0), 2.0, 1.0)
    with pytest.raises(InvalidInputError):
        loop_monodromy(f, (z, 1), -2.0, 1.0)
    with pytest.raises(InvalidInputError):
        loop_monodromy(f, (z, 1), 2.0, 4.0)  # loop would cross the real axis
    with pytest.raises(InvalidInputError):
        loop_monodromy(f, (complex(0.0, 2.0), 1), 2.0, 1.0)  # not a zero


def test_loop_monodromy_clearance_errors():
    f = from_vector(RealVector((math.e**2, 1.0)))  # zeros at odd pi/2 i
    z = complex(0.0, 1.5 * math.pi)
    others = (complex(0.0, 0.5 * math.pi), complex(0.0, 2.5 * math.pi))
    with pytest.raises(ClearanceError):
        loop_monodromy(f, (z, 1), 2.0, 3.5, other_zeros=others)  # inside loop
    with pytest.raises(ClearanceError):
        loop_monodromy(f, (z, 1), 2.0, 2.8, other_zeros=others)  # near path
    measured, predicted = loop_monodromy(f, (z, 1), 2.0, 1.0, other_zeros=others)
    assert abs(measured - predicted) <= 1e-6


def test_loop_monodromy_clearance_names_the_first_offending_zero():
    f = from_vector(RealVector((math.e**2, 1.0)))
    z = complex(0.0, 1.5 * math.pi)
    near = complex(0.0, 2.5 * math.pi)  # 0.34 from the circle of radius 2.8
    inside = z + 1.0
    with pytest.raises(ClearanceError, match=r"^path passes within 1\.4 of the zero at 7\.8"):
        loop_monodromy(f, (z, 1), 2.0, 2.8, other_zeros=(near, inside))
    with pytest.raises(ClearanceError, match=r"^zero at \(1\+4\.71"):
        loop_monodromy(f, (z, 1), 2.0, 2.8, other_zeros=(inside, near))


def test_segment_distances_match_the_scalar_rule():
    def scalar(z, a, b):
        ab, za = b - a, z - a
        length = abs(ab)  # abs(complex) rounds as np.hypot does; math.hypot may not
        if length == 0.0:
            return abs(za)
        ux, uy = ab.real / length, ab.imag / length
        along = max(0.0, min(length, za.real * ux + za.imag * uy))
        return abs(complex(za.real - along * ux, za.imag - along * uy))

    def squared(z, a, b):  # the textbook rule, t = (z - a).(b - a) / |b - a|^2
        ab = b - a
        den = ab.real * ab.real + ab.imag * ab.imag
        if den == 0.0:
            return abs(z - a)
        t = ((z - a).real * ab.real + (z - a).imag * ab.imag) / den
        return abs(z - (a + max(0.0, min(1.0, t)) * ab))

    rng = np.random.default_rng(7)
    loop = np.array(build_loop_path(3j, 2.0, 0.1).points)
    for _ in range(200):
        pts = rng.normal(size=6) + 1j * rng.normal(size=6)
        pts[3] = pts[2]  # a segment of length 0
        for path in (pts, loop):
            z = complex(rng.normal(), rng.normal())
            segments = list(zip(path.tolist(), path[1:].tolist()))
            got = continuation._segment_distances(z, path).tolist()
            assert got == [scalar(z, a, b) for a, b in segments]
            for d, (a, b) in zip(got, segments):
                size = max(abs(z), abs(a), abs(b))
                assert math.isclose(d, squared(z, a, b), rel_tol=1e-14, abs_tol=1e-15 * size)


@pytest.mark.parametrize("big", [1e300, 1e308])
def test_segment_distances_of_huge_segments_are_finite(big):
    # squared, these lengths overflow; the distances must not turn nan
    path = np.array([0j, big + 1j * big])
    assert continuation._segment_distances(-big + 0j, path).tolist() == [big]
    (inside,) = continuation._segment_distances(big + 0j, path).tolist()
    assert math.isclose(inside, big / math.sqrt(2), rel_tol=1e-15)


def test_loop_monodromy_uses_discovered_zeros():
    f = from_vector(RealVector((math.e, 1.0)))
    zs = find_zeros(f, Rectangle(-1, 1, 1, 10))
    target = min(zs.zeros, key=lambda z: z.location.imag)
    rest = [z.location for z in zs.zeros if z is not target]
    measured, predicted = loop_monodromy(
        f, (target.location, target.multiplicity), 2.7, 1.0, other_zeros=rest
    )
    assert abs(measured - predicted) <= 1e-6 * abs(predicted)


def test_random_paths_keep_branch_invariant():
    rng = np.random.default_rng(29)
    f = ExpPoly(((-0.3, 1), (0.6, 2)))
    zs = find_zeros(f, Rectangle(-3, 5, 0.2, 25))
    locs = np.array([z.location for z in zs.zeros])
    for _ in range(15):
        pts = [complex(rng.uniform(0.5, 4), rng.uniform(0.2, 20)) for _ in range(4)]
        if locs.size and min(
            abs(complex(p) - w) for p in pts for w in locs
        ) < 0.3:
            continue
        end = continue_log(f, Path(tuple(pts)))
        val = evaluate(f, end.p)
        assert abs(cmath.exp(end.logf) - val) <= 1e-10 * abs(val)


def _as_pairs(points) -> list[tuple[float, float]]:
    return sorted((z.real, z.imag) for z in np.asarray(points).tolist())


def test_continue_log_evaluates_each_point_once(kernel_calls):
    f = from_vector(RealVector((math.e, 1.0)))
    loop = build_loop_path(1j * math.pi, 2.0, 0.25)
    _, nodes = continuation._track(f, loop)
    kernel_calls.clear()
    end = continue_log(f, loop)
    # one kernel call per refinement round (113 points, then 3), not one per step
    assert len(kernel_calls) <= 4
    assert max(c.size for c in kernel_calls) <= exppoly._MAX_CALL_POINTS
    # no node twice: the calls together hold the accepted nodes exactly
    # (the loop retraces its legs, so positions repeat as often as nodes do)
    assert _as_pairs(np.concatenate(kernel_calls)) == _as_pairs(nodes)
    assert kernel_calls[0][0] == nodes[0] == nodes[-1] == complex(2.0, 0.0)
    # summing the accepted argument steps in rounds moves the branch by at
    # most a few ulp from the value the step-by-step march gave
    assert end.p == complex(2.0, 0.0)
    pinned = complex(
        float.fromhex("0x1.103f2d54301d5p+1"), float.fromhex("0x1.921fb54442d1ap+2")
    )
    assert abs(end.logf.real - pinned.real) <= 4 * math.ulp(pinned.real)
    assert abs(end.logf.imag - pinned.imag) <= 4 * math.ulp(pinned.imag)


def test_continue_log_stops_at_its_step_budget(monkeypatch, kernel_calls):
    monkeypatch.setattr(continuation, "_MAX_STEPS", 1000)
    f = from_vector(RealVector((math.e, 1.0)))
    # round 1 cuts this path into pieces of 0.25: 4001 points, refused
    # before any is evaluated, at the path start
    with pytest.raises(ContinuationError, match="step budget") as err:
        continue_log(f, Path((1 + 0j, 1 + 1000j)))
    assert kernel_calls == []
    assert err.value.point == 1 + 0j

    # this loop takes 113 points in round 1 and 3 more in round 2
    loop = build_loop_path(1j * math.pi, 2.0, 0.25)
    _, nodes = continuation._track(f, loop)
    monkeypatch.setattr(continuation, "_MAX_STEPS", 114)
    kernel_calls.clear()
    with pytest.raises(ContinuationError, match="step budget") as err:
        continue_log(f, loop)
    (round1,) = kernel_calls
    assert round1.size == 113
    # refused at the end of the longest accepted prefix: the start of the
    # first round-1 gap that the full run cut
    first_cut = np.argmax(round1 != nodes[: round1.size])
    assert first_cut > 1
    assert err.value.point == round1[first_cut - 1]


def test_continue_log_caps_the_points_per_kernel_call(kernel_calls):
    # round 1 of this loop holds about 8,100 points: two kernel calls
    f = from_vector(RealVector((math.e, 1.0)))
    base = 1000.0
    loop = build_loop_path(1j * math.pi, base, 0.5)
    _, nodes = continuation._track(f, loop)
    kernel_calls.clear()
    end = continue_log(f, loop)
    assert nodes.size > exppoly._MAX_CALL_POINTS
    assert max(c.size for c in kernel_calls) == exppoly._MAX_CALL_POINTS
    assert sum(c.size for c in kernel_calls) == nodes.size
    measured = cmath.exp((end.logf - evaluate_log(f, base)) / base)
    assert abs(measured - cmath.exp(TAU * 1j / base)) <= 1e-6


def test_loop_monodromy_reads_the_base_log_from_its_continuation(kernel_calls):
    # one call that tests the zero (relative |f| there) and the
    # continuation's three (4,096 + 4,001 + 3 points); no call re-evaluates
    # log f at base_p
    f = from_vector(RealVector((math.e, 1.0)))
    measured, predicted = loop_monodromy(f, (1j * math.pi, 1), 1000.0, 0.25)
    assert [c.size for c in kernel_calls] == [1, 4096, 4001, 3]
    assert abs(measured - predicted) <= 1e-6 * abs(predicted)
    # log f is real at the base point, so dropping its real parts leaves a
    # two-term sum's factor bit for bit what the difference of logs gave
    for base in (2.0, 3.5, 1000.0):
        end = continue_log(f, build_loop_path(1j * math.pi, base, 0.25))
        by_difference = cmath.exp((end.logf - evaluate_log(f, base)) / base)
        assert loop_monodromy(f, (1j * math.pi, 1), base, 0.25)[0] == by_difference


def test_continue_log_refuses_a_loop_from_a_huge_base_at_once(kernel_calls):
    f = from_vector(RealVector((math.e, 1.0)))
    with pytest.raises(ContinuationError, match="step budget") as err:
        continue_log(f, build_loop_path(1j * math.pi, 1e300, 0.25))
    assert kernel_calls == []
    assert err.value.point == 1e300


@pytest.mark.parametrize("where", [0, 2])
@pytest.mark.parametrize("refusal", ["runs into", "starts at", "budget"])
def test_a_batch_tracks_each_path_as_alone_up_to_the_first_refused(
    monkeypatch, refusal, where
):
    f = from_vector(RealVector((math.e, 1.0)))  # zeros at odd multiples of i pi
    loops = [
        np.array(build_loop_path(1j * math.pi, 2.0, 0.25).points),  # 2 rounds
        np.array(build_loop_path(3j * math.pi, 3.5, 0.5).points),
    ]
    refused = {
        # the node in the middle of this segment is i pi
        "runs into": np.array([2 + 0j, 1 + 1j * math.pi, -1 + 1j * math.pi]),
        "starts at": np.array([1j * math.pi, 2 + 1j * math.pi]),
        # round 1 cuts this path into 1,201 points
        "budget": np.array([1 + 0j, 1 + 300j]),
    }[refusal]
    monkeypatch.setattr(continuation, "_MAX_STEPS", 1000)
    paths = loops[:where] + [refused] + loops[where:]
    tracked, err = continuation._track_paths(f, paths)
    assert len(tracked) == where
    for (end, nodes), path in zip(tracked, paths):
        alone_end, alone_nodes = continuation._track(f, Path(tuple(path.tolist())))
        assert end == alone_end and nodes.tolist() == alone_nodes.tolist()
    with pytest.raises(ContinuationError) as alone:
        continuation._track(f, Path(tuple(refused.tolist())))
    assert str(err) == str(alone.value) and err.point == alone.value.point
    assert {"budget": "step budget"}.get(refusal, refusal) in str(err)


def test_loop_monodromies_raise_the_error_of_the_first_loop_to_fail():
    f = from_vector(RealVector((math.e, 1.0)))
    z = complex(0.0, math.pi)
    # a loop that continues but mismatches comes before one refused up front
    with pytest.raises(MonodromyMismatchError):
        continuation.loop_monodromies(f, [(z, 2), (complex(0.0, 2.0), 1)], [2.0], 1.0)
    with pytest.raises(InvalidInputError, match="not a zero"):
        continuation.loop_monodromies(f, [(complex(0.0, 2.0), 1), (z, 2)], [2.0], 1.0)
    # the first loop's failure decides even when it comes later in the stages
    with pytest.raises(InvalidInputError, match="base_p 1e-300"):
        continuation.loop_monodromies(f, [(z, 1), (complex(0.0, 2.0), 1)], [1e-300, 2.0], 1.0)


def test_only_an_unrefined_zero_is_spared_the_not_a_zero_verdict():
    f = from_vector(RealVector((math.e, 1.0)))
    near = complex(0.01, math.pi)
    with pytest.raises(ContinuationError, match=r"^unrefined zero at \(0\.01\+3\.14"):
        loop_monodromy(f, Zero(near, 1, refined=False), 2.0, 0.25)
    for zero in (Zero(near, 1), (near, 1)):
        with pytest.raises(InvalidInputError, match="is not a zero of f"):
            loop_monodromy(f, zero, 2.0, 0.25)
