"""Property tests of the norm matrix against a per-cell ``math.fsum`` reference.

The reference is the scalar loop the column kernel replaced: the largest
magnitude m factored out, the ratios r = |c|/m powered one by one and
summed exactly by fsum.  Both share the ratios, so they differ only by the
rounding of each r**p (one rounding in either power function), the plain
summation of len(v) non-negative terms (at most about len(v) * eps/2
relative against the exactly rounded fsum), the outer power and the final
product: about (len(v) + 3) * eps relative in all, the bound used here.
"""

import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from pnormcert import RealVector, SampleGrid, build_matrix, pnorm_at

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
