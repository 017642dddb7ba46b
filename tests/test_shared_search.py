"""The zero searches of a job's sums run as one (``exppoly._searched_together``):
each sum still gets, bit for bit, what its own search gives, its own error
and its own window, while the count rounds, quadrature rounds and Hankel
solves are shared."""

import collections
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnormcert import exppoly
from pnormcert.cli import main
from pnormcert.exppoly import ExpPoly, Rectangle, count_zeros, find_zeros, from_vector
from pnormcert.vectors import RealVector


def outcome(f: ExpPoly, rect: Rectangle):
    """The bits of what ``find_zeros(f, rect)`` returns, or the type and
    text of what it raises."""
    try:
        zs = find_zeros(f, rect)
    except Exception as error:
        return type(error), str(error)
    zeros = tuple(
        (z.location.real.hex(), z.location.imag.hex(), z.multiplicity, z.refined)
        for z in zs.zeros
    )
    return zeros, zs.window, zs.total


def shared(polys: list[ExpPoly], rect: Rectangle) -> list:
    with exppoly._searched_together(polys):
        return [outcome(f, rect) for f in polys]


@st.composite
def exp_sums(draw):
    """2-6 terms 0.3-1.2 apart, coefficients 1-3 (repeated magnitudes)."""
    lowest = draw(st.floats(-2.0, 2.0))
    steps = draw(st.lists(st.floats(0.3, 1.2), min_size=1, max_size=5))
    betas = np.cumsum([lowest] + steps).tolist()
    counts = draw(st.lists(st.integers(1, 3), min_size=len(betas), max_size=len(betas)))
    return ExpPoly(tuple(zip(betas, counts)))


@st.composite
def zero_free_sums(draw):
    """Two terms 0.01-0.05 apart: every zero lies at Im p >= 20 pi, above
    every window drawn here."""
    beta = draw(st.floats(-2.0, 2.0))
    gap = draw(st.floats(0.01, 0.05))
    return ExpPoly(((beta, draw(st.integers(1, 3))), (beta + gap, draw(st.integers(1, 3)))))


windows = st.one_of(
    st.just(exppoly.DEFAULT_WINDOW),
    st.builds(
        lambda re0, width, im0, height: Rectangle(re0, re0 + width, im0, im0 + height),
        st.floats(-2.0, 0.0),
        st.floats(0.5, 3.0),
        st.floats(0.1, 20.0),
        st.floats(1.0, 20.0),
    ),
)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    st.lists(exp_sums(), min_size=0, max_size=3),
    zero_free_sums(),
    st.integers(0, 3),
    windows,
)
def test_a_shared_search_gives_each_sum_its_own_result(polys, zero_free, at, rect):
    # 1-4 sums of mixed term counts, one with no zero in the window
    polys = polys[:at] + [zero_free] + polys[at:]
    alone = [outcome(f, rect) for f in polys]
    assert shared(polys, rect) == alone
    assert alone[polys.index(zero_free)][2] == 0


def counted(f: ExpPoly, rect: Rectangle):
    """What ``count_zeros(f, rect)`` returns, with its type, or the type and
    text of what it raises."""
    try:
        n = count_zeros(f, rect)
    except Exception as error:
        return type(error), str(error)
    return type(n), n


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.lists(exp_sums(), min_size=1, max_size=3), windows)
def test_a_count_outside_a_block_is_the_count_inside_one(polys, rect):
    alone = [counted(f, rect) for f in polys]
    for f, own in zip(polys, alone):
        with exppoly._searched_together([f]):
            assert counted(f, rect) == own
    with exppoly._searched_together(polys):
        assert [counted(f, rect) for f in polys] == alone
    assert all(kind is int for kind, _ in alone if not issubclass(kind, Exception))


def test_a_count_is_a_plain_int():
    f = from_vector(RealVector((1.0, 2.0)))
    n = count_zeros(f, exppoly.DEFAULT_WINDOW)
    # it holds no panel store, so it pickles as the int it is
    assert type(n) is int
    assert len(pickle.dumps(n)) == len(pickle.dumps(int(n)))


def test_an_inflated_window_counts_its_sum_alone(monkeypatch):
    batches = []
    real = exppoly._contour_sums

    def contour_sums(edges, boxes, *args):
        batches.append([edges.polys[box.poly] for box in boxes])
        return real(edges, boxes, *args)

    monkeypatch.setattr(exppoly, "_contour_sums", contour_sums)
    f, g = (from_vector(RealVector(v)) for v in ((1.0, 2.0), (1.0, math.e)))
    rect = exppoly.DEFAULT_WINDOW
    wider = rect.inflate(exppoly._INFLATION_FACTOR)
    expected = [count_zeros(h, r) for r in (rect, wider) for h in (f, g)]
    batches.clear()
    with exppoly._searched_together([f, g]):
        # the first count counts both windows, the second reads g's
        got = [count_zeros(f, rect), count_zeros(g, rect)]
        assert batches == [[f, g]]
        # each inflated window is a count of its own sum alone
        got += [count_zeros(f, wider), count_zeros(g, wider)]
        assert batches == [[f, g], [f], [g]]
    assert got == expected


def cli_zeros(tmp_path, capsys, vectors, window=None) -> tuple[int, str]:
    """The exit code and standard error of a zeros job."""
    doc = {"command": "zeros", "vectors": vectors}
    if window is not None:
        doc["window"] = window
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    code = main(["zeros", "--input", str(path), "--output", str(tmp_path / "cert.json")])
    return code, capsys.readouterr().err


# fails in its 4th count round: a leaf of 293 zeros of a 2-term sum
EARLY = [5e-324, 1.0]
# fails in its 7th count round: a leaf of 17 zeros of a 2-term sum
LATE = [1e308, 1.0]


@pytest.mark.parametrize(
    "vectors, failing",
    [
        pytest.param([EARLY, [1.0, 2.0]], EARLY, id="failing-first"),
        pytest.param([[1.0, 2.0], EARLY], EARLY, id="failing-last"),
        pytest.param([LATE, EARLY], LATE, id="lower-index-fails-later"),
    ],
)
def test_a_zeros_job_fails_with_the_error_of_its_first_failing_vector(
    tmp_path, capsys, vectors, failing
):
    # the shared search raises what the vectors' own searches, in input
    # order, raise first, even when a later vector fails in an earlier round
    expected = cli_zeros(tmp_path, capsys, [failing])
    assert expected[0] == 3 and expected[1].startswith("error: no subdivision of ")
    assert cli_zeros(tmp_path, capsys, vectors) == expected


def test_the_later_failing_vector_fails_in_a_later_count_round(monkeypatch):
    # the premise of the case above: alone, LATE's search runs more count
    # rounds than EARLY's before it fails
    rounds = []
    real = exppoly._count_adaptive
    monkeypatch.setattr(
        exppoly, "_count_adaptive", lambda edges, boxes: rounds.append(1) or real(edges, boxes)
    )
    made = []
    for v in (EARLY, LATE):
        rounds.clear()
        with pytest.raises(exppoly.QuadratureError, match="no subdivision of "):
            find_zeros(from_vector(RealVector(v)), exppoly.DEFAULT_WINDOW)
        made.append(len(rounds))
    assert made == [4, 7]


def test_each_vector_keeps_the_window_of_its_own_search():
    # the bottom edge runs through the zero i pi / ln 2 of 1 + 2^p, so that
    # window inflates; that of 1 + e^p has no zero on the edge and does not
    rect = Rectangle(-1.0, 1.0, math.pi / math.log(2.0), 20.0)
    polys = [from_vector(RealVector(v)) for v in ((1.0, 2.0), (1.0, math.e))]
    got = shared(polys, rect)
    assert got == [outcome(f, rect) for f in polys]
    assert got[0][1] != rect and got[1][1] == rect


@pytest.fixture
def spies(monkeypatch):
    """Calls of the zero-search stages, recorded from here on: each
    ``_contour_sums`` call, the sums of each quadrature round's kernel
    calls, and per ``_moment_zeros`` call its box counts and SVD stacks."""
    calls = collections.defaultdict(list)
    evaluating = []
    real_sums, real_moments = exppoly._contour_sums, exppoly._moment_zeros
    real_evaluate, real_parts = exppoly._Edges.evaluate_panels, exppoly._parts
    real_svd = np.linalg.svd

    def contour_sums(*args):
        calls["_contour_sums"].append(args[1])
        return real_sums(*args)

    def evaluate_panels(edges, *args):
        calls["rounds"].append([])
        evaluating.append(True)
        try:
            return real_evaluate(edges, *args)
        finally:
            evaluating.pop()

    def parts(f, ps, *args):
        if evaluating:
            calls["rounds"][-1].append(f)
        return real_parts(f, ps, *args)

    def moment_zeros(edges, boxes, sums):
        calls["solves"].append(({box.count for box in boxes}, []))
        return real_moments(edges, boxes, sums)

    def svd(a, *args, **kwargs):
        calls["solves"][-1][1].append(a.shape)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(exppoly, "_contour_sums", contour_sums)
    monkeypatch.setattr(exppoly._Edges, "evaluate_panels", evaluate_panels)
    monkeypatch.setattr(exppoly, "_parts", parts)
    monkeypatch.setattr(exppoly, "_moment_zeros", moment_zeros)
    monkeypatch.setattr(np.linalg, "svd", svd)
    return calls


def test_a_shared_search_shares_its_rounds_and_solves(spies):
    # three sums that count over the default window at once and split
    # into boxes of several counts
    vectors = ((1.0, 40.0), (math.e, 1.0), (1.0, 2.0, 3.0, 5.0))
    polys = [from_vector(RealVector(v)) for v in vectors]
    rounds = []
    for f in polys:
        spies.clear()
        find_zeros(f, exppoly.DEFAULT_WINDOW)
        rounds.append(len(spies["_contour_sums"]))
    spies.clear()
    with exppoly._searched_together(polys):
        for f in polys:
            find_zeros(f, exppoly.DEFAULT_WINDOW)
    # the first count round counts every window, and each later one holds
    # the boxes of every sum still searching
    assert len(spies["_contour_sums"]) == max(rounds) < sum(rounds)
    assert len(spies["_contour_sums"][0]) == 3
    # a quadrature round makes one kernel call for each sum with new panels
    assert all(len(set(map(id, made))) == len(made) for made in spies["rounds"])
    assert max(len(made) for made in spies["rounds"]) == 3
    # a round solves its boxes of each count as one stack
    for counts, stacks in spies["solves"]:
        assert sorted(shape[1] for shape in stacks) == sorted(counts)
    assert any(shape[0] > 1 for _, stacks in spies["solves"] for shape in stacks)
