import json
import math
import random

import numpy as np
import pytest

from pnormcert import (
    InvalidInputError,
    NormMatrix,
    RealVector,
    SampleGrid,
    analyze,
    build_matrix,
    make_grid,
    numeric_rank,
    pnorm_at,
)
from pnormcert import dependence, exppoly
from pnormcert.cli import main
from pnormcert.dependence import CONSISTENT, ILL_CONDITIONED, UNEXPECTED
from pnormcert.vectors import EquivalencePartition
from pnormcert.exppoly import from_vector, ratio_factor

FAMILIES = {
    "independent-pair": [(1.0, 0.0), (1.0, 1.0)],
    "permutation-plus-sum": [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)],
    "scaled-duplicates": [(1.0, 2.0), (2.0, 4.0), (5.0, 1.0)],
    "mixed-sizes": [(3.0, 4.0), (1.0, 1.0, 1.0), (2.0,)],
    "sign-and-padding": [(1.0, -2.0, 0.0), (-2.0, 1.0), (1.0, 3.0)],
}


def vectors(name):
    return [RealVector(t) for t in FAMILIES[name]]


def cosine(u, w):
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    return abs(u @ w) / (np.linalg.norm(u) * np.linalg.norm(w))


def test_make_grid_known_cases():
    g = make_grid(1, 4, 2)
    assert g.points == (1.0, 4.0)
    assert not g.include_infinity and g.count == 2

    g = make_grid(1, math.inf, 9)
    assert g.include_infinity and g.count == 9
    assert len(g.points) == 8
    assert g.points[0] == 1.0 and g.points[-1] == 40.0
    assert all(x < y for x, y in zip(g.points, g.points[1:]))

    with pytest.raises(InvalidInputError):
        make_grid(2, 2, 5)
    with pytest.raises(InvalidInputError):
        make_grid(0.5, 4, 8)
    with pytest.raises(InvalidInputError):
        make_grid(1, 4, 1)


def test_make_grid_caps_long_intervals():
    g = make_grid(2, 1e9, 8)
    assert g.points[-1] == 41.0
    assert not g.include_infinity


def test_build_matrix_known_columns():
    m = build_matrix([RealVector((1.0,))], SampleGrid(1, 3, (1.0, 2.0, 3.0), False))
    assert np.allclose(m.entries, np.ones((3, 1)), atol=0)

    m = build_matrix([RealVector((1.0, 1.0))], SampleGrid(1, 2, (1.0, 2.0), False))
    assert m.entries[0, 0] == pytest.approx(2.0, rel=1e-15)
    assert m.entries[1, 0] == pytest.approx(math.sqrt(2.0), rel=1e-15)

    # the infinity row is the exact max norm, placed last
    m = build_matrix([RealVector((3.0, 4.0))], SampleGrid(1, math.inf, (1.0,), True))
    assert m.entries.shape == (2, 1)
    assert m.entries[1, 0] == 4.0


def test_build_matrix_warns_on_thin_grids():
    vs = [RealVector((1.0, 0.0)), RealVector((1.0, 1.0))]
    with pytest.warns(UserWarning):
        build_matrix(vs, make_grid(1, 4, 3))


def test_column_scaling_normalizes_to_unit_length():
    vs = vectors("permutation-plus-sum")
    m = build_matrix(vs, make_grid(1, 4, 12))
    lengths = np.linalg.norm(m.scaled(), axis=0)
    assert np.allclose(lengths, 1.0, atol=1e-12)


def test_numeric_rank_known_cases():
    grid = make_grid(1, 4, 8)
    m = build_matrix([RealVector((1.0,)), RealVector((2.0,))], grid)
    rank, sigmas, gap = numeric_rank(m)
    assert rank == 1
    assert gap >= 1e6
    assert sigmas[0] >= sigmas[1]

    m = build_matrix([RealVector((1.0, 0.0)), RealVector((1.0, 1.0))], grid)
    rank, sigmas, gap = numeric_rank(m)
    assert rank == 2
    assert gap == math.inf

    m = build_matrix([RealVector((3.0, 4.0))], grid)
    assert numeric_rank(m)[0] == 1


def test_numeric_rank_least_squares_oracle():
    # rank 2 must mean the second column genuinely escapes the first's span
    grid = make_grid(1, 4, 8)
    m = build_matrix([RealVector((1.0, 0.0)), RealVector((1.0, 1.0))], grid)
    a = m.scaled()
    _, res, _, _ = np.linalg.lstsq(a[:, :1], a[:, 1], rcond=None)
    assert math.sqrt(res[0]) > 1e-3

    # and rank 1 must mean the residual vanishes
    m = build_matrix([RealVector((1.0,)), RealVector((2.0,))], grid)
    a = m.scaled()
    _, res, _, _ = np.linalg.lstsq(a[:, :1], a[:, 1], rcond=None)
    assert math.sqrt(res[0]) <= 1e-12


def test_numeric_rank_requires_tall_matrix():
    grid = make_grid(1, 4, 2)
    entries = np.array([[1.0, 2.0], [3.0, 4.0]])
    m = NormMatrix(entries, np.linalg.norm(entries, axis=0), grid)
    with pytest.raises(InvalidInputError):
        numeric_rank(m)


def test_numeric_rank_undecidable_spectrum():
    # a smooth singular-value cascade admits no 1e6 gap above the floor
    rng = np.random.default_rng(7)
    u = np.ones(8)
    basis = np.column_stack([u] + [rng.standard_normal(8) for _ in range(3)])
    w = np.linalg.qr(basis)[0][:, 1:]
    eps = (2e-4, 4e-8, 2e-11)
    entries = np.column_stack([u] + [u + w[:, j] * e for j, e in enumerate(eps)])
    assert entries.min() > 0
    m = NormMatrix(entries, np.linalg.norm(entries, axis=0), make_grid(1, 4, 8))
    rank, sigmas, gap = numeric_rank(m)
    assert rank is None
    assert math.isnan(gap)
    assert len(sigmas) == 4


def test_analyze_permutation_family():
    report = analyze(vectors("permutation-plus-sum"), 1, 4)
    assert report.classification == CONSISTENT
    assert report.numeric_rank == 2
    assert len(report.null_basis) == 1
    assert cosine(report.null_basis[0], (1.0, -1.0, 0.0)) >= 1 - 1e-9
    assert report.principal_angle <= 1e-6
    assert report.rank_gap >= 1e6


def test_analyze_proportional_pair_on_infinite_interval():
    report = analyze([RealVector((2.0,)), RealVector((1.0,))], 1, math.inf)
    assert report.classification == CONSISTENT
    assert report.numeric_rank == 1
    assert len(report.null_basis) == 1
    assert cosine(report.null_basis[0], (1.0, -2.0)) >= 1 - 1e-9


def test_analyze_singleton():
    report = analyze([RealVector((1.0,))], 1, 2)
    assert report.classification == CONSISTENT
    assert report.numeric_rank == 1
    assert report.null_basis == ()
    assert report.principal_angle == 0.0
    assert report.ratio_checks == ()
    assert any("tolerance" in n or "near-boundary" in n for n in report.notes)


def test_analyze_rank_plus_nullity():
    for name in FAMILIES:
        report = analyze(vectors(name), 1, 4)
        n = len(FAMILIES[name])
        assert report.numeric_rank + len(report.null_basis) == n


def test_theorem_conformance_families_and_intervals():
    for name in FAMILIES:
        vs = vectors(name)
        classes = len(analyze(vs, 1, 4).partition.classes)
        for a, b in ((1, 2), (1, 4), (2, 8), (1, math.inf)):
            report = analyze(vs, a, b)
            assert report.classification == CONSISTENT, (name, a, b)
            assert report.numeric_rank == classes
            assert report.rank_gap >= 1e6
            if report.null_basis:
                assert report.principal_angle <= 1e-6


def test_sampling_robustness():
    for name in ("permutation-plus-sum", "scaled-duplicates"):
        vs = vectors(name)
        base = analyze(vs, 1, 4)
        assert base.classification == CONSISTENT
        # the default grid against one twice as fine; the null space on a
        # finer grid is checked by test_null_basis_residual_on_fresh_grid
        fine = build_matrix(vs, make_grid(1, 4, 2 * base.matrix.grid.count))
        fine_rank, fine_sigmas, _ = numeric_rank(fine)
        assert fine_rank == base.numeric_rank
        r = base.numeric_rank
        ratio_base = base.singular_values[r - 1] / base.singular_values[0]
        ratio_fine = fine_sigmas[r - 1] / fine_sigmas[0]
        assert abs(ratio_fine - ratio_base) < 0.1 * ratio_base


def test_null_basis_residual_on_fresh_grid():
    vs = vectors("scaled-duplicates")
    report = analyze(vs, 1, 4)
    assert report.null_basis
    fine = make_grid(1, 4, 64)
    for alpha in report.null_basis:
        worst = 0.0
        for p in fine.points:
            norms = [pnorm_at(v, p) for v in vs]
            num = abs(sum(a * x for a, x in zip(alpha, norms)))
            den = sum(abs(a) * x for a, x in zip(alpha, norms))
            worst = max(worst, num / den)
        assert worst <= 1e-8


@pytest.mark.parametrize("big", [8e20, -8.19e220])
def test_null_space_of_a_family_spanning_many_magnitudes_is_compared_scaled(big):
    # one class of three one-coordinate vectors; unscaled, the column of [1]
    # swamps both null vectors, which come out near (0, 0, 1) together
    report = analyze([RealVector((big,)), RealVector((big,)), RealVector((-1.0,))])
    assert report.classification == CONSISTENT
    assert report.numeric_rank == 1
    assert len(report.null_basis) == 2
    assert report.principal_angle <= 1e-6


@pytest.mark.parametrize("c", [3.0, 1e160])
def test_scale_equivariance(c):
    vs = vectors("scaled-duplicates")
    base = analyze(vs, 1, 4)
    scaled_vs = [vs[0], RealVector(tuple(c * x for x in vs[1].coords)), vs[2]]
    scaled = analyze(scaled_vs, 1, 4)
    assert scaled.numeric_rank == base.numeric_rank
    assert scaled.classification == base.classification
    # alpha_k -> alpha_k / c on the scaled vector, up to span
    mapped = np.asarray(scaled.null_basis[0], dtype=float).copy()
    mapped[1] *= c
    assert cosine(mapped, base.null_basis[0]) >= 1 - 1e-9


def test_ratio_evidence_blocks():
    report = analyze(vectors("scaled-duplicates"), 1, 4)
    pairs = {(i, j): fit for i, j, fit in report.ratio_checks}
    assert (1, 0) in pairs  # member against its class representative
    assert pairs[(1, 0)].residual <= 1e-10
    rep_pairs = [k for k in pairs if set(k) == {0, 2}]
    assert rep_pairs and pairs[rep_pairs[0]].residual >= 1e-3


def _family_with_copies() -> list[RealVector]:
    """Twelve inequivalent vectors, most with copies made by the equivalence moves."""
    rng = random.Random(20)
    vs = []
    for k in range(12):
        base = [rng.uniform(0.1, 5.0) for _ in range(2 + k % 4)]
        vs.append(RealVector(tuple(base)))
        for _ in range(k % 3):
            copy = [rng.choice((-1.0, 1.0)) * 2.5 * x for x in base] + [0.0] * rng.randint(0, 2)
            rng.shuffle(copy)
            vs.append(RealVector(tuple(copy)))
    return vs


def test_ratio_evidence_equals_the_one_pair_fit_bit_for_bit():
    vs = _family_with_copies()
    polys = [from_vector(v) for v in vs]
    part = dependence.partition(vs)
    assert len(part.classes) == 12 and len(part.classes) < len(vs)
    checks = dependence._ratio_evidence(polys, part)
    assert len(checks) == len(vs) - 12 + 12 * 11 // 2
    pairs = [(i, j) for i, j, _ in checks]
    samples = [1.0, 1.5, 2.5, 4.0]
    for fits, sample_ps in (
        ([fit for _, _, fit in checks], None),
        (exppoly._ratio_fits(polys, pairs, samples), samples),
    ):
        for (i, j), fit in zip(pairs, fits):
            one = ratio_factor(polys[i], polys[j], sample_ps)
            assert [x.hex() for x in (fit.a, fit.beta, fit.residual)] == [
                x.hex() for x in (one.a, one.beta, one.residual)
            ], (i, j)


def test_ratio_evidence_evaluates_each_sum_once(monkeypatch):
    # the sums of one term count share one stacked call, a row each, and
    # every sum is a row of exactly one call
    vs = _family_with_copies()
    polys = [from_vector(v) for v in vs]
    part = dependence.partition(vs)
    seen = []
    real = exppoly._log

    def spy(f, ps):
        seen.append(f)
        return real(f, ps)

    monkeypatch.setattr(exppoly, "_log", spy)
    dependence._ratio_evidence(polys, part)
    rows = [(tuple(e), tuple(m)) for f in seen for e, m in zip(f.exponents, f.multiplicities)]
    assert sorted(rows) == sorted((tuple(f.exponents), tuple(f.multiplicities)) for f in polys)
    assert len(seen) == len({len(f.terms) for f in polys}) == 4


def test_analyze_decomposes_the_norm_matrix_once(monkeypatch):
    shapes = []
    for name in ("svd", "qr"):

        def spy(a, *args, real=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    # two classes of two: rank 2 with a 2-dimensional null space to compare
    vs = [RealVector(t) for t in [(1.0, 2.0), (2.0, 4.0), (5.0, 1.0), (1.0, 5.0)]]
    report = analyze(vs, 1, 4)
    assert report.classification == CONSISTENT and report.numeric_rank == 2
    assert shapes.count(report.matrix.entries.shape) == 1, shapes


def test_zero_evidence_opt_in():
    vs = [RealVector((math.e, 1.0)), RealVector((math.e**2, 1.0))]
    plain = analyze(vs, 1, 4)
    assert plain.zero_checks == ()
    report = analyze(vs, 1, 4, zero_window=exppoly.DEFAULT_WINDOW)
    assert report.zero_checks == ((0, 1, False),)

    same = [RealVector((math.e, 1.0)), RealVector((2 * math.e, 2.0))]
    report = analyze(same, 1, 4, zero_window=exppoly.DEFAULT_WINDOW)
    assert report.zero_checks == ()  # one class, no representative pairs


def test_zero_evidence_counts_each_class_once(monkeypatch):
    counted = []
    real = exppoly.count_zeros

    def spy(f, rect):
        counted.append(f)
        return real(f, rect)

    monkeypatch.setattr(exppoly, "count_zeros", spy)
    # (e, 1) and (e, 1, e, 1) are inequivalent, but e^p + 1 and 2e^p + 2
    # share their zeros; e^{2p} + 1 has twice as many
    vs = [
        RealVector((math.e, 1.0)),
        RealVector((math.e**2, 1.0)),
        RealVector((math.e, 1.0, math.e, 1.0)),
    ]
    report = analyze(vs, 1, 4, zero_window=exppoly.DEFAULT_WINDOW)
    assert len(report.partition.classes) == 3
    assert report.zero_checks == ((0, 1, False), (0, 2, True), (1, 2, False))
    assert len(counted) == 3


def test_tolerance_boundary_stays_coherent():
    # the sigma floor matches the equivalence tolerance: a pair just inside
    # the tolerance must not surface a phantom second rank, and a pair just
    # outside must resolve to two classes of full rank
    inside = [RealVector((1.0, 2.0)), RealVector((1.0, 2.0 * (1 + 5e-10)))]
    r = analyze(inside, 1, 4)
    assert len(r.partition.classes) == 1
    assert r.numeric_rank == 1
    assert r.classification == CONSISTENT

    outside = [RealVector((1.0, 2.0)), RealVector((1.0, 2.0 * (1 + 5e-9)))]
    r = analyze(outside, 1, 4)
    assert len(r.partition.classes) == 2
    assert r.numeric_rank == 2
    assert r.classification == CONSISTENT


@pytest.mark.parametrize(
    "coords, planted, classification, rank, note",
    [
        # a smooth cascade of singular values: no admissible gap
        ([[1, 1 + k / 8] for k in range(1, 9)], None, ILL_CONDITIONED, None, "rank undecided"),
        # two independent curves planted as one class
        ([[1, 2], [1, 3]], (2.0, 3.0), ILL_CONDITIONED, 2, "exceeds the 1 equivalence"),
        # one class planted with the wrong scale ratio: the null space misses
        ([[1, 2], [2, 4]], (2.0, 6.0), UNEXPECTED, 1, "principal angle 1.974e-01 rad"),
        # the second weight is below float64 resolution beside the first, so
        # the two classes' curves agree to the last bit
        ([[1, 1e-20], [1]], None, ILL_CONDITIONED, 1, "sigma_2/sigma_1 = 1.13e-16 under"),
        ([[1, 1e-300], [1]], None, ILL_CONDITIONED, 1, "sigma_2/sigma_1 = 1.13e-16 under"),
    ],
    ids=["no-gap", "rank-above-classes", "misaligned", "weight-1e-20", "weight-1e-300"],
)
def test_analyze_refuses_what_the_samples_cannot_certify(
    tmp_path, capsys, monkeypatch, coords, planted, classification, rank, note
):
    if planted is not None:
        merged = EquivalencePartition(((0, 1),), (planted,), 2)
        monkeypatch.setattr(dependence, "partition", lambda vs: merged)
    report = analyze([RealVector(tuple(map(float, v))) for v in coords])
    assert report.classification == classification
    assert report.numeric_rank == rank
    assert note in report.notes[-1]
    if classification == UNEXPECTED:
        assert report.principal_angle == pytest.approx(0.1974, abs=1e-4)
    else:
        assert report.principal_angle is None
    job_file = tmp_path / "job.json"
    job_file.write_text(json.dumps({"command": "analyze", "vectors": coords}))
    code = 3 if classification == ILL_CONDITIONED else 2
    assert main(["analyze", "--input", str(job_file)]) == code
    captured = capsys.readouterr()
    assert json.loads(captured.out)["payload"]["classification"] == classification
    assert not captured.err


def test_grid_validation():
    with pytest.raises(InvalidInputError):
        SampleGrid(1, 4, (), False)
    with pytest.raises(InvalidInputError):
        SampleGrid(1, 4, (1.0, 1.0), False)
    with pytest.raises(InvalidInputError):
        SampleGrid(2, 4, (1.0, 3.0), False)
