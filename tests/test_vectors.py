import math

import numpy as np
import pytest

from pnormcert import (
    InvalidInputError,
    RealVector,
    canonicalize,
    equivalent,
    partition,
    pnorm_at,
    trivial_null_basis,
)


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
    part = partition([u, v, w], tol=1e-9)
    assert len(part.classes) == 1
