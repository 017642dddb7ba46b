import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pnormcert import (
    InvalidInputError,
    RealVector,
    canonicalize,
    equivalent,
    partition,
    pnorm_at,
    trivial_null_basis,
    vectors,
)
from pnormcert.cli import parse_jobspec, run


def test_rejects_degenerate_vectors():
    with pytest.raises(InvalidInputError):
        RealVector(())
    with pytest.raises(InvalidInputError):
        RealVector((0.0, 0.0))
    with pytest.raises(InvalidInputError):
        RealVector((1.0, math.nan))
    with pytest.raises(InvalidInputError):
        RealVector((math.inf,))
    # a largest coordinate below the normal range: its norm column's scale
    # would turn null vectors into inf
    with pytest.raises(InvalidInputError, match="normal float64 range"):
        RealVector((5e-324, -1e-310))
    assert RealVector((1.0, 5e-324)).max_abs == 1.0


@pytest.mark.parametrize("coord", ["x", None])
def test_rejects_coordinates_that_are_not_real_numbers(coord):
    with pytest.raises(InvalidInputError, match="^coordinates must be real numbers: "):
        RealVector((coord,))


def test_partition_needs_a_vector():
    with pytest.raises(InvalidInputError, match="^need at least one vector$"):
        partition([])


def test_canonicalize_known_forms():
    c = canonicalize(RealVector((-2.0, 0.0, 4.0)))
    assert c.weights == (1.0, 0.5)
    assert c.scale == 4.0

    c = canonicalize(RealVector((1.0, 1.0)))
    assert c.weights == (1.0, 1.0)
    assert c.scale == 1.0

    c = canonicalize(RealVector((3.0, 4.0)))
    assert c.weights == (1.0, 0.75)
    assert c.scale == 4.0


def test_canonical_weights_sorted_and_bounded():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = rng.integers(1, 9)
        v = RealVector(tuple(rng.normal(size=d))) if np.any(rng.normal(size=d)) else None
        coords = rng.normal(size=d)
        if not np.any(coords):
            continue
        c = canonicalize(RealVector(tuple(coords)))
        assert c.weights[0] == 1.0
        assert all(0 < w <= 1 for w in c.weights)
        assert all(x >= y for x, y in zip(c.weights, c.weights[1:]))
        # scale * weights recovers the non-zero magnitudes as a multiset
        rebuilt = sorted(c.scale * w for w in c.weights)
        expected = sorted(abs(x) for x in coords if x != 0)
        assert np.allclose(rebuilt, expected, rtol=1e-14)


def test_canonicalize_invariant_under_the_four_moves():
    rng = np.random.default_rng(21)
    for _ in range(60):
        d = int(rng.integers(1, 7))
        coords = rng.normal(size=d)
        if not np.any(coords):
            continue
        base = canonicalize(RealVector(tuple(coords)))
        # pad with zeros, permute, flip signs, rescale by c > 0
        c = float(rng.uniform(0.1, 10.0))
        padded = np.concatenate([coords, np.zeros(int(rng.integers(0, 4)))])
        perm = rng.permutation(len(padded))
        signs = rng.choice([-1.0, 1.0], size=len(padded))
        moved = canonicalize(RealVector(tuple(c * signs * padded[perm])))
        assert len(moved.weights) == len(base.weights)
        assert np.allclose(moved.weights, base.weights, rtol=1e-12)
        assert math.isclose(moved.scale, c * base.scale, rel_tol=1e-12)


def test_equivalent_known_pairs():
    flag, ratio = equivalent(RealVector((0.0, 3.0, -4.0)), RealVector((8.0, 6.0)))
    assert flag and math.isclose(ratio, 0.5, rel_tol=1e-15)

    flag, ratio = equivalent(RealVector((1.0, 1.0)), RealVector((1.0,)))
    assert not flag and ratio is None

    flag, ratio = equivalent(RealVector((2.0,)), RealVector((1.0,)))
    assert flag and ratio == 2.0

    # 1e600 and 1e-600 are no float64 ratios
    for u, v in ((1e300, 1e-300), (1e-300, 1e300)):
        with pytest.raises(OverflowError):
            equivalent(RealVector((u,)), RealVector((v,)))


def test_equivalent_is_reflexive_and_symmetric():
    rng = np.random.default_rng(3)
    vs = []
    for _ in range(8):
        coords = rng.normal(size=int(rng.integers(1, 5)))
        if np.any(coords):
            vs.append(RealVector(tuple(coords)))
    for v in vs:
        flag, ratio = equivalent(v, v)
        assert flag and ratio == 1.0
    for u in vs:
        for v in vs:
            fu, ru = equivalent(u, v)
            fv, rv = equivalent(v, u)
            assert fu == fv
            if fu:
                assert math.isclose(ru * rv, 1.0, rel_tol=1e-12)


def test_ratio_composes_along_chains():
    u = RealVector((1.0, 2.0))
    v = RealVector((3.0, 6.0))
    w = RealVector((-10.0, 0.0, 5.0))
    _, r_uv = equivalent(u, v)
    _, r_vw = equivalent(v, w)
    _, r_uw = equivalent(u, w)
    assert math.isclose(r_uv * r_vw, r_uw, rel_tol=1e-12)


def test_partition_known_families():
    part = partition([RealVector((1.0, 0.0)), RealVector((0.0, 1.0)), RealVector((1.0, 1.0))])
    assert part.classes == ((0, 1), (2,))

    part = partition([RealVector((1.0,)), RealVector((2.0,)), RealVector((1.0, 1.0))])
    assert part.classes == ((0, 1), (2,))

    part = partition([RealVector((1.0,))])
    assert part.classes == ((0,),)


def test_partition_scales_are_canonical_scales():
    part = partition([RealVector((2.0,)), RealVector((1.0,))])
    assert part.classes == ((0, 1),)
    assert part.scales == ((2.0, 1.0),)


def test_trivial_null_basis_known_cases():
    part = partition([RealVector((0.5, 1.0)), RealVector((1.0, 0.5))])
    assert trivial_null_basis(part) == [(1.0, -1.0)]

    part = partition([RealVector((2.0,)), RealVector((1.0,))])
    assert trivial_null_basis(part) == [(1.0, -2.0)]

    part = partition([RealVector((1.0,)), RealVector((1.0, 1.0))])
    assert trivial_null_basis(part) == []


def test_trivial_null_basis_size_and_support():
    vs = [
        RealVector((1.0, 2.0)),
        RealVector((4.0, 2.0)),
        RealVector((0.0, 1.0, -2.0)),
        RealVector((5.0,)),
        RealVector((2.5,)),
        RealVector((10.0,)),
    ]
    part = partition(vs)
    basis = trivial_null_basis(part)
    assert len(basis) == sum(len(c) - 1 for c in part.classes)
    # each basis vector is supported inside exactly one class
    for alpha in basis:
        support = {k for k, x in enumerate(alpha) if x != 0.0}
        assert any(support <= set(c) for c in part.classes)


def test_trivial_null_basis_kills_norm_combinations():
    vs = [
        RealVector((1.0, 2.0)),
        RealVector((-4.0, 0.0, 2.0)),
        RealVector((3.0, 6.0)),
        RealVector((1.0, 1.0, 1.0)),
        RealVector((0.5, 0.5, 0.5)),
    ]
    part = partition(vs)
    basis = trivial_null_basis(part)
    assert basis
    samples = np.linspace(1.0, 8.0, 11)
    for alpha in basis:
        for p in samples:
            terms = [alpha[k] * pnorm_at(vs[k], float(p)) for k in range(len(vs))]
            bound = max(abs(t) for t in terms)
            assert abs(sum(terms)) <= 1e-10 * bound


def test_partition_transitive_at_generous_tolerance():
    # u ~ v and v ~ w individually must land all three in one class
    u = RealVector((1.0, 2.0))
    v = RealVector((2.0, 4.0000000001))
    w = RealVector((4.0, 8.0000000004))
    part = partition([u, v, w])
    assert len(part.classes) == 1


# weights 0.5 (1 +- 8e-10): each matches 0.5 within 1e-9 relative, and they
# do not match each other
UP, DOWN = 0.5 * (1 + 8e-10), 0.5 * (1 - 8e-10)


@pytest.mark.parametrize(
    "weights, message",
    [
        ((0.5, UP, DOWN), "vectors[1] and vectors[2] fall in one class but do not match"),
        ((UP, DOWN, 0.5), "vectors[1] and vectors[2] match but fall in two classes"),
        ((0.7, UP, 0.3, DOWN, 0.5), "vectors[3] and vectors[4] match but fall in two classes"),
    ],
)
def test_partition_refuses_a_family_where_matching_is_not_transitive(weights, message):
    vs = [RealVector((2.0, 2.0 * w)) for w in weights]
    with pytest.raises(ArithmeticError, match=r"not transitive on these vectors: ") as err:
        partition(vs)
    assert str(err.value).endswith(message)
    # two vectors are never refused: matching one pair is symmetric
    x, y = weights[:2]
    assert equivalent(vs[0], vs[1])[0] == (abs(x - y) <= 1e-9 * max(x, y))


def test_the_first_pair_that_disagrees_is_named_across_support_sizes():
    # support 3 comes first and disagrees at (4, 5), support 2 at (2, 3):
    # the pair named is the first by j
    vs = [
        RealVector((1.0, 0.25, 0.25)),
        RealVector((1.0, 0.5)),
        RealVector((1.0, UP)),
        RealVector((1.0, DOWN)),
        RealVector((1.0, 0.25 * (1 + 8e-10), 0.25)),
        RealVector((1.0, 0.25 * (1 - 8e-10), 0.25)),
    ]
    with pytest.raises(ArithmeticError, match=r"vectors\[2\] and vectors\[3\] fall in one"):
        partition(vs)


def _family(rng, n_bases: int, copies: int) -> list[RealVector]:
    """Bases of 2-4 coordinates and copies made by the equivalence moves, shuffled."""
    bases = [rng.uniform(0.1, 5.0, size=int(rng.integers(2, 5))) for _ in range(n_bases)]
    vs = []
    for base in bases:
        for _ in range(copies):
            coords = rng.permutation(base) * rng.choice([-1.0, 1.0], base.size)
            padding = np.zeros(rng.integers(0, 2))
            vs.append(np.concatenate([coords * rng.uniform(0.5, 4.0), padding]))
    return [RealVector(tuple(vs[k])) for k in rng.permutation(len(vs))]


@pytest.mark.parametrize("cap", [1, 4, 7, 30])
def test_partition_in_blocks_equals_partition_in_one_block(monkeypatch, cap):
    rng = np.random.default_rng(11)
    family = _family(rng, 8, 4)
    whole = partition(family)
    assert len(whole.classes) == 8
    refused = [RealVector((1.0, w)) for w in (0.7, UP, 0.3, DOWN, 0.5, 0.2)]
    with pytest.raises(ArithmeticError) as whole_err:
        partition(refused)
    monkeypatch.setattr(vectors, "_MAX_STACK_ELEMENTS", cap)
    assert partition(family) == whole
    with pytest.raises(ArithmeticError) as err:
        partition(refused)
    assert str(err.value) == str(whole_err.value)


@st.composite
def nearly_equivalent_families(draw):
    """Base vectors and copies whose smaller weights move by relative
    offsets around the 1e-9 tolerance, permuted, negated, rescaled and
    zero-padded."""
    offsets = st.sampled_from([0.0, 3e-10, -3e-10, 6e-10, -6e-10, 1.2e-9, -1.2e-9])
    vs = []
    for _ in range(draw(st.integers(1, 3))):
        rest = draw(st.lists(st.floats(0.1, 0.9), min_size=1, max_size=3))
        for _ in range(draw(st.integers(1, 4))):
            moved = [1.0] + [w * (1 + draw(offsets)) for w in rest]
            scale = draw(st.sampled_from([0.25, 1.0, 3.0, 1e-3]))
            signs = st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(moved), max_size=len(moved))
            coords = zip(draw(signs), draw(st.permutations(moved)))
            vs.append([scale * sign * w for sign, w in coords] + [0.0] * draw(st.integers(0, 1)))
    return draw(st.permutations(vs))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(nearly_equivalent_families())
@example([[1, 0.5], [1, 0.5000000004], [1, 0.4999999996]])
def test_equiv_pairs_never_disagree_with_the_partition(vs):
    job = parse_jobspec(json.dumps({"command": "equiv", "vectors": vs}))
    try:
        cert, _ = run(job)
    except ArithmeticError as err:
        assert "not transitive" in str(err)
        return
    part = cert.payload["partition"]
    where = {
        k: (c, scale)
        for c, (members, scales) in enumerate(zip(part["classes"], part["scales"]))
        for k, scale in zip(members, scales)
    }
    assert sorted(where) == list(range(len(vs)))
    for pair in cert.payload["pairs"]:
        (ci, si), (cj, sj) = where[pair["i"]], where[pair["j"]]
        assert pair["equivalent"] == (ci == cj)
        assert pair["ratio"] == (si / sj if ci == cj else None)
