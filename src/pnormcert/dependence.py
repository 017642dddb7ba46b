"""Numerical certification that norm curves are independent across classes.

Samples the curves p -> ||v_k||_p on a Chebyshev grid, computes the numeric
rank and null space of the sampled matrix, and checks that every linear
dependence among the curves is one of the trivial ones generated by
equivalent vectors: the null space must coincide with the span predicted
by the equivalence partition, up to a principal-angle tolerance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .continuation import pnorms
from .errors import InvalidInputError
from .exppoly import (
    ExpPoly,
    RatioFit,
    Rectangle,
    _ratio_fits,
    _zero_multisets_equal,
    from_vector,
)
from .vectors import (
    _EQUIV_TOL,
    EquivalencePartition,
    RealVector,
    partition,
)

# The p-interval [a, b] sampled when none is given.
DEFAULT_INTERVAL = (1.0, 4.0)
# numeric_rank's spectral-gap threshold and relative sigma floor, and the
# principal angle (radians) within which the null space must match.
_GAP_THRESHOLD = 1e6
_SIGMA_FLOOR = 1e-10
_ANGLE_TOL = 1e-6
# Finite samples stop this far above a, whatever b is (b = inf adds the
# exact max-norm row).  The cap is a sampling choice, not a flatness bound:
# ||(1, 0.999)||_40 = 1.017 while the max norm is 1.
_INTERVAL_CUTOFF = 39.0

CONSISTENT = "consistent-with-theorem"
UNEXPECTED = "unexpected-dependence"
ILL_CONDITIONED = "ill-conditioned"


@dataclass(frozen=True)
class SampleGrid:
    """Sample points for p in [a, b]; b may be +inf.

    ``points`` holds the finite samples; an infinite right endpoint adds
    one symbolic sample evaluated as the exact max norm.  ``count`` counts
    both kinds.
    """

    a: float
    b: float
    points: tuple[float, ...]
    include_infinity: bool

    def __post_init__(self) -> None:
        if not self.points:
            raise InvalidInputError("grid needs at least one finite point")
        for p in self.points:
            if not (math.isfinite(p) and p >= self.a):
                raise InvalidInputError("grid points must be finite and >= a")
        if any(x >= y for x, y in zip(self.points, self.points[1:])):
            raise InvalidInputError("grid points must be strictly increasing")

    @property
    def count(self) -> int:
        return len(self.points) + bool(self.include_infinity)


@dataclass(frozen=True, eq=False)
class NormMatrix:
    """entries[i, k] = ||v_k||_{p_i}, the infinity row (if any) last.

    ``column_scales`` are the Euclidean lengths of the raw columns; rank
    analysis runs on entries / column_scales so the gap threshold is
    scale-free.
    """

    entries: np.ndarray
    column_scales: np.ndarray
    grid: SampleGrid

    def __post_init__(self) -> None:
        if self.entries.ndim != 2 or self.entries.shape[0] != self.grid.count:
            raise InvalidInputError("matrix shape does not match the grid")
        if not np.all(self.entries > 0):
            raise InvalidInputError("norm matrix entries must be positive")
        if self.column_scales.shape != (self.entries.shape[1],):
            raise InvalidInputError("one scale per column required")

    def scaled(self) -> np.ndarray:
        return self.entries / self.column_scales

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray]:
        """(singular values, right singular vectors as rows) of ``scaled()``,
        shared by the rank and the null space.  They are taken from the
        square R of its QR factorization, so no left vectors are formed."""
        _, sig, vh = np.linalg.svd(np.linalg.qr(self.scaled(), mode="r"))
        return sig, vh


@dataclass(frozen=True, eq=False)
class DependenceReport:
    matrix: NormMatrix
    partition: EquivalencePartition
    singular_values: tuple[float, ...]
    numeric_rank: int | None
    rank_gap: float
    null_basis: tuple[tuple[float, ...], ...]
    principal_angle: float | None
    classification: str
    ratio_checks: tuple[tuple[int, int, RatioFit], ...]
    zero_checks: tuple[tuple[int, int, bool], ...]
    notes: tuple[str, ...]


def default_grid_count(n: int) -> int:
    """Samples for ``n`` curves: 4n, at least 16, which keeps twice the 2n
    margin that ``build_matrix`` warns below."""
    return max(16, 4 * n)


def make_grid(a: float, b: float, count: int) -> SampleGrid:
    """Chebyshev points with exact endpoints on [a, hi], hi = min(b, a +
    _INTERVAL_CUTOFF).

    Requires 1 <= a < b, count >= 2 and a span [a, hi] wide enough for the
    finite samples to be distinct floats; a refusal names [a, hi] too when
    hi < b.  For b = +inf the last of the ``count`` samples is the
    symbolic infinity sample (evaluated later as the exact max norm) and
    only count-1 finite points are generated.
    """
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b) or not (1.0 <= a < b):
        raise InvalidInputError(f"invalid interval [{a}, {b}]: need 1 <= a < b")
    if count < 2:
        raise InvalidInputError("grid count must be at least 2")
    include_inf = math.isinf(b)
    n_finite = count - 1 if include_inf else count
    hi = min(b, a + _INTERVAL_CUTOFF)
    if n_finite == 1:
        pts = [a]
    else:
        mid = 0.5 * (a + hi)
        half = 0.5 * (hi - a)
        pts = [mid - half * math.cos(math.pi * k / (n_finite - 1)) for k in range(n_finite)]
        pts[0] = a
        pts[-1] = hi
        if any(x >= y for x, y in zip(pts, pts[1:])):
            span = f"[{a}, {b}]" + (f" sampled on [{a}, {hi}]" if hi < b else "")
            raise InvalidInputError(f"{span} is too narrow for {n_finite} distinct samples")
    return SampleGrid(a, b, tuple(pts), include_inf)


def build_matrix(vs: list[RealVector], grid: SampleGrid) -> NormMatrix:
    """Tabulate ||v_k||_p over the grid; infinity row exact, last.

    A column whose Euclidean length overflows float64 raises
    InvalidInputError naming ``vectors[k]``.
    """
    if not vs:
        raise InvalidInputError("need at least one vector")
    if grid.count < 2 * len(vs):
        warnings.warn(
            f"grid count {grid.count} below 2x vector count; "
            "rank decisions may be fragile",
            stacklevel=2,
        )
    ps = grid.points + ((math.inf,) if grid.include_infinity else ())
    with np.errstate(over="ignore"):  # an overflowing column raises below
        entries = pnorms(vs, ps)
        # scale each column by a power of two near its largest entry before
        # squaring: exact, and only a length above the float64 range overflows
        _, exps = np.frexp(entries.max(axis=0))
        scales = np.ldexp(np.linalg.norm(np.ldexp(entries, -exps), axis=0), exps)
    overflow = np.flatnonzero(~np.isfinite(scales))
    if overflow.size:
        raise InvalidInputError(
            f"vectors[{overflow[0]}]: norm curve too large for float64 on this grid"
        )
    return NormMatrix(entries, scales, grid)


def numeric_rank(matrix: NormMatrix) -> tuple[int | None, tuple[float, ...], float]:
    """(rank, singular values, rank gap) of the column-scaled matrix.

    rank is the largest r whose spectral gap sigma_r/sigma_{r+1} reaches
    _GAP_THRESHOLD while sigma_r stays at or above _SIGMA_FLOOR relative
    to sigma_1 (with sigma_{n+1} taken as 0, so a clean full-rank matrix
    reports an infinite gap).  rank None means no admissible gap exists:
    the matrix is too ill-conditioned to classify.
    """
    rows, cols = matrix.entries.shape
    if rows <= cols:
        raise InvalidInputError("rank analysis needs more samples than vectors")
    # sigma_1 is at least the length of a scaled column, 1 (``column_scales``)
    sigmas = tuple(float(s) for s in matrix.svd[0])
    rank: int | None = None
    rank_gap = math.nan
    for r in range(1, cols + 1):
        tail = sigmas[r] if r < cols else 0.0
        gap = math.inf if tail == 0.0 else sigmas[r - 1] / tail
        if gap >= _GAP_THRESHOLD and sigmas[r - 1] / sigmas[0] >= _SIGMA_FLOOR:
            rank, rank_gap = r, gap
    return rank, sigmas, rank_gap


def _null_basis(
    matrix: NormMatrix, rank: int
) -> tuple[tuple[float, ...], ...]:
    """Trailing right singular vectors mapped back to unscaled coordinates.

    Each vector is normalized so its largest-magnitude entry is +1, which
    fixes scale and sign deterministically.
    """
    out = []
    for w in matrix.svd[1][rank:]:
        alpha = w / matrix.column_scales
        pivot = int(np.argmax(np.abs(alpha)))
        alpha = alpha / alpha[pivot]
        out.append(tuple(float(x) for x in alpha))
    return tuple(out)


def _principal_angle(
    null: np.ndarray, part: EquivalencePartition, scales: np.ndarray
) -> float:
    """Largest principal angle (radians) between the span of ``null`` and
    that of the trivial dependencies of ``part``, which has as many vectors.

    Both are compared in the scaled coordinates the rank analysis ran in,
    where a column with a small scale cannot swamp the others.  ``null``
    holds orthonormal rows there.  The trivial vector (l_i, -l_0) of
    ``trivial_null_basis`` is built there directly, divided by l_0 l_i:
    (s_{k_0} / l_0, -s_{k_i} / l_i).  Both entries are near the norm of the
    class weight curve, so nothing over- or underflows.
    """
    rows = []
    for members, lams in zip(part.classes, part.scales):
        for k, lam in zip(members[1:], lams[1:]):
            row = np.zeros(part.n)
            row[members[0]] = scales[members[0]] / lams[0]
            row[k] = -scales[k] / lam
            rows.append(row)
    if not rows:
        return 0.0
    qb, _ = np.linalg.qr(np.array(rows).T)
    s = np.linalg.svd(null @ qb, compute_uv=False)
    return float(np.arccos(np.clip(s.min(), -1.0, 1.0)))


def analyze(
    vs: list[RealVector],
    a: float = DEFAULT_INTERVAL[0],
    b: float = DEFAULT_INTERVAL[1],
    *,
    zero_window: Rectangle | None = None,
) -> DependenceReport:
    """Full certification run for one family of vectors on [a, b].

    Partitions the family into equivalence classes (relative tolerance
    _EQUIV_TOL), samples the norm matrix on ``default_grid_count``
    points, and compares the numeric rank and null space against the
    partition's prediction: rank = number of classes and null space =
    span of the trivial dependencies.  Any disagreement is surfaced in the
    classification, never patched over.  A ``zero_window`` adds zero
    evidence: the class representatives' zero multisets compared pairwise
    inside it.  A family the equivalence rule cannot split raises
    ArithmeticError (``partition``).
    """
    part = partition(vs)
    grid = make_grid(a, b, default_grid_count(len(vs)))
    matrix = build_matrix(vs, grid)
    rank, sigmas, rank_gap = numeric_rank(matrix)
    notes = [
        "equivalence uses relative tolerance "
        f"{_EQUIV_TOL:g} on canonical weights; near-boundary inputs "
        "may flip classification"
    ]
    n_classes = len(part.classes)
    if rank is None:
        classification = ILL_CONDITIONED
        null = ()
        angle = None
        notes.append("no admissible singular-value gap; rank undecided")
    else:
        null = _null_basis(matrix, rank)
        if rank > n_classes:
            classification = ILL_CONDITIONED
            angle = None
            notes.append(
                f"numeric rank {rank} exceeds the {n_classes} equivalence "
                "classes: equivalence and rank tolerances disagree"
            )
        elif rank < n_classes:
            angle = None
            ratio = sigmas[n_classes - 1] / sigmas[0]
            if ratio < _SIGMA_FLOOR:
                classification = ILL_CONDITIONED
                notes.append(
                    f"numeric rank {rank} below the {n_classes} equivalence "
                    f"classes with sigma_{n_classes}/sigma_1 = {ratio:.2e} under "
                    f"the floor {_SIGMA_FLOOR:g}: the samples cannot separate the classes"
                )
            else:
                classification = UNEXPECTED
                notes.append(
                    f"numeric rank {rank} below the {n_classes} equivalence "
                    "classes: a non-trivial dependence among the sampled curves"
                )
        else:
            angle = _principal_angle(matrix.svd[1][rank:], part, matrix.column_scales)
            if angle <= _ANGLE_TOL:
                classification = CONSISTENT
            else:
                classification = UNEXPECTED
                notes.append(
                    f"null space misaligned with trivial dependencies "
                    f"(principal angle {angle:.3e} rad)"
                )
    polys = [from_vector(v) for v in vs]
    ratio_checks = _ratio_evidence(polys, part)
    zero_checks = () if zero_window is None else _zero_evidence(polys, part, zero_window)
    return DependenceReport(
        matrix=matrix,
        partition=part,
        singular_values=sigmas,
        numeric_rank=rank,
        rank_gap=rank_gap,
        null_basis=null,
        principal_angle=angle,
        classification=classification,
        ratio_checks=ratio_checks,
        zero_checks=zero_checks,
        notes=tuple(notes),
    )


def _ratio_evidence(
    polys: list[ExpPoly], part: EquivalencePartition
) -> tuple[tuple[int, int, RatioFit], ...]:
    """Ratio fits backing the partition: members against their class
    representative (residual ~ 0 expected) and representatives pairwise
    (residual visibly positive expected)."""
    reps = [cls[0] for cls in part.classes]
    pairs = [(k, cls[0]) for cls in part.classes for k in cls[1:]]
    pairs += [(ra, rb) for i, ra in enumerate(reps) for rb in reps[i + 1 :]]
    fits = _ratio_fits(polys, pairs)
    return tuple((i, j, fit) for (i, j), fit in zip(pairs, fits))


def _zero_evidence(
    polys: list[ExpPoly], part: EquivalencePartition, window: Rectangle
) -> tuple[tuple[int, int, bool], ...]:
    """Zero-multiset comparisons inside ``window`` for class representatives, pairwise."""
    reps = [cls[0] for cls in part.classes]
    equal = _zero_multisets_equal([polys[r] for r in reps], window)
    pairs = [(ra, rb) for i, ra in enumerate(reps) for rb in reps[i + 1 :]]
    return tuple((ra, rb, flag) for (ra, rb), flag in zip(pairs, equal))
