"""Property tests of the norm matrix against a per-cell ``math.fsum`` reference.

The reference is the scalar loop the column kernel replaced: the largest
magnitude m factored out, the ratios r = |c|/m powered one by one and
summed exactly by fsum.  Both share the ratios, so they differ only by the
rounding of each r**p (one rounding in either power function), the plain
summation of len(v) non-negative terms (at most about len(v) * eps/2
relative against the exactly rounded fsum), the outer power and the final
product: about (len(v) + 3) * eps relative in all, the bound used here.

The table of a family is also checked against the table of each vector
alone, bit for bit, and its memory against the stacking cap.
"""

import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnormcert import RealVector, SampleGrid, build_matrix, exppoly, pnorm_at
from pnormcert.continuation import pnorms
from pnormcert.dependence import default_grid_count, make_grid

EPS = 2.0**-52
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def fsum_pnorm(v: RealVector, p: float) -> float:
    """||v||_p summed term by term with math.fsum."""
    m = v.max_abs
    s = math.fsum((abs(c) / m) ** p for c in v.coords if c != 0.0)
    return m * s ** (1.0 / p)


@st.composite
def vectors(draw) -> RealVector:
    """1-64 coordinates with magnitudes in [1e-300, 1e300], some of them zero.

    The magnitudes spread about a centre by a drawn width, from all equal
    (ties at the maximum) to the full 600 decades.
    """
    n = draw(st.integers(1, 64))
    centre = draw(st.floats(-300.0, 300.0))
    width = draw(st.sampled_from((0.0, 1e-9, 0.1, 3.0, 30.0, 600.0)))
    coords = []
    for _ in range(n):
        if draw(st.integers(0, 5)) == 0:
            coords.append(0.0)
            continue
        exponent = min(300.0, max(-300.0, centre + width * draw(st.floats(-1.0, 1.0))))
        sign = draw(st.sampled_from((-1.0, 1.0)))
        coords.append(sign * 10.0**exponent)
    if not any(coords):
        coords[0] = 10.0**centre
    return RealVector(tuple(coords))


@st.composite
def grids(draw) -> SampleGrid:
    """1-8 points p in [1, 1e6] plus the infinity sample."""
    ps = draw(
        st.lists(
            st.one_of(st.sampled_from((1.0, 2.0, 3.0)), st.floats(0.0, 6.0).map(lambda e: 10.0**e)),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    return SampleGrid(1.0, math.inf, tuple(sorted(ps)), True)


@PROPERTY
@given(st.lists(vectors(), min_size=1, max_size=3), grids())
def test_norm_matrix_matches_the_fsum_reference(vs, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # thin grids are fine here
        matrix = build_matrix(vs, grid)
    for k, v in enumerate(vs):
        tol = (len(v) + 3) * EPS
        for i, p in enumerate(grid.points):
            ref = fsum_pnorm(v, p)
            assert abs(matrix.entries[i, k] - ref) <= tol * ref, (k, p)
        assert matrix.entries[-1, k] == v.max_abs  # the infinity row is exact


def test_exactly_representable_norms_are_exact():
    assert pnorm_at(RealVector((3.0, 4.0)), 2.0) == 5.0
    assert pnorm_at(RealVector((1.0, 1.0)), 2.0) == 2.0**0.5
    grid = SampleGrid(1.0, math.inf, (1.0, 2.0, 3.0, 4.0), True)
    column = build_matrix([RealVector((3.0, 0.0, -4.0))], grid).entries[:, 0]
    assert column[0] == 7.0 and column[1] == 5.0 and column[-1] == 4.0


@st.composite
def supports(draw) -> RealVector:
    """1-10 non-zero coordinates, zero padded, some of them tied at the
    maximum, and at times a subnormal that is not the maximum."""
    coords = [
        draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-8.0, 8.0))
        for _ in range(draw(st.integers(1, 10)))
    ]
    coords += [max(coords, key=abs)] * draw(st.integers(0, 2))
    if draw(st.booleans()):
        coords.append(draw(st.sampled_from((5e-324, -1e-310, 2.0**-1070))))
    coords += [0.0] * draw(st.integers(0, 3))
    return RealVector(tuple(draw(st.permutations(coords))))


@PROPERTY
@given(st.lists(supports(), min_size=1, max_size=12), grids(), st.integers(1, 200))
def test_a_family_table_gives_each_vector_the_bits_of_its_own_column(vs, grid, cap):
    # vectors of one support size share a stacked power and sum; a cap of
    # few elements cuts each group into chunks, down to one vector each
    ps = grid.points + (math.inf,)
    alone = [pnorms([v], ps)[:, 0] for v in vs]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exppoly, "_MAX_STACK_ELEMENTS", cap)
        table = pnorms(vs, ps)
    assert table.shape == (len(ps), len(vs))
    for k, column in enumerate(alone):
        assert table[:, k].tobytes() == column.tobytes(), k


def test_a_family_table_holds_at_most_the_cap_plus_one_vector_table():
    # 64 vectors of 2,000 coordinates on their 256-point default grid: the
    # whole stack would be 64 tables of 4 MB, but a stacked call holds at
    # most _MAX_STACK_ELEMENTS, and a single vector runs alone past it
    rng = random.Random(7)
    vs = [RealVector(tuple(rng.uniform(-3.0, 3.0) for _ in range(2000))) for _ in range(64)]
    grid = make_grid(1.0, 4.0, default_grid_count(len(vs)))
    one_table = 2000 * grid.count * 8
    tracemalloc.start()
    try:
        build_matrix(vs, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= exppoly._MAX_STACK_ELEMENTS * 8 + one_table, peak
    # one vector bigger than the cap is tabulated alone, bit for bit
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exppoly, "_MAX_STACK_ELEMENTS", 1000)
        table = pnorms(vs[:3], grid.points)
    assert table.tobytes() == np.column_stack([pnorms([v], grid.points)[:, 0] for v in vs[:3]]).tobytes()
