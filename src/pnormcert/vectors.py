"""Vector equivalence machinery: canonical forms, partitions, forced dependencies.

Two vectors count as equivalent when they differ only by adding zero
coordinates, permuting or negating coordinates, and positive rescaling.
Equivalent vectors have exactly proportional norm curves, so a class with
s+1 members forces s independent dependencies among the sampled curves.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

# Relative tolerance within which two canonical weights count as equal.
_EQUIV_TOL = 1e-9
# Elements one stacked array may hold: rows x terms x points of the norm
# table or of a kernel call, vectors x vectors x weights of a block of
# ``partition``'s comparisons.  A longer stack is cut into chunks, and a
# single row larger than this runs alone.
_MAX_STACK_ELEMENTS = 2**20


@dataclass(frozen=True)
class RealVector:
    """Finite real vector with at least one non-zero coordinate."""

    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        try:
            coords = tuple(float(c) for c in self.coords)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"coordinates must be real numbers: {exc}") from exc
        if not coords:
            raise InvalidInputError("vector needs at least one coordinate")
        if not all(math.isfinite(c) for c in coords):
            raise InvalidInputError("vector coordinates must be finite")
        if all(c == 0.0 for c in coords):
            raise InvalidInputError("all-zero vector has no norm curve")
        if max(abs(c) for c in coords) < sys.float_info.min:
            raise InvalidInputError("largest coordinate is below the normal float64 range")
        object.__setattr__(self, "coords", coords)

    def __len__(self) -> int:
        return len(self.coords)

    @property
    def max_abs(self) -> float:
        return max(abs(c) for c in self.coords)

    def nonzero_magnitudes(self) -> list[float]:
        """Magnitudes of the non-zero coordinates, in coordinate order."""
        return [abs(c) for c in self.coords if c != 0.0]


@dataclass(frozen=True)
class CanonicalForm:
    """Scale-free fingerprint of a vector under the equivalence moves.

    ``weights`` are the non-zero magnitudes divided by the largest one,
    sorted non-increasing (first entry exactly 1); ``scale`` is the largest
    magnitude, so ``scale * weights`` recovers the non-zero magnitude
    multiset.
    """

    weights: tuple[float, ...]
    scale: float


@dataclass(frozen=True)
class EquivalencePartition:
    """Grouping of vector indices into equivalence classes.

    ``scales[c][i]`` is the canonical scale of the i-th member of class c,
    i.e. its size relative to the class's unit-max weight vector.
    """

    classes: tuple[tuple[int, ...], ...]
    scales: tuple[tuple[float, ...], ...]
    n: int


def canonicalize(v: RealVector) -> CanonicalForm:
    """Reduce ``v`` modulo zero-padding, permutation, negation, and scaling.

    Exact zeros are dropped; weights of equal magnitude are kept as repeated
    entries, never merged.
    """
    scale = v.max_abs
    weights = tuple(sorted((m / scale for m in v.nonzero_magnitudes()), reverse=True))
    return CanonicalForm(weights, scale)


def equivalent(u: RealVector, v: RealVector) -> tuple[bool, float | None]:
    """Decide equivalence by ``partition([u, v])``; on success also return
    scale(u)/scale(v) (``_scale_ratio``), so ||u||_p = ratio * ||v||_p for
    every p."""
    part = partition([u, v])
    return (True, _scale_ratio(*part.scales[0])) if len(part.classes) == 1 else (False, None)


def _scale_ratio(a: float, b: float) -> float:
    """a / b for the canonical scales of two equivalent vectors.  A ratio
    outside the normal float64 range raises OverflowError rather than come
    back as inf, 0 or a subnormal."""
    ratio = a / b
    if not sys.float_info.min <= ratio <= sys.float_info.max:
        raise OverflowError(f"scale ratio {a!r} / {b!r} leaves the float64 range")
    return ratio


def partition(vs: list[RealVector]) -> EquivalencePartition:
    """Group vectors into equivalence classes, ordered by smallest member.

    Each vector is canonicalized once.  Two vectors match when they have
    as many canonical weights and every pair x, y of them has
    |x - y| <= _EQUIV_TOL * max(x, y); the vectors of one support size are
    compared pairwise in blocks of rows, at most _MAX_STACK_ELEMENTS
    elements at a time (a row larger than that runs alone).  Each vector
    joins the class of the first vector it matches, itself if none before
    it.  Matching is not transitive near the tolerance: when some pair's
    match disagrees with the classes, ArithmeticError names the first such
    pair (i < j, by j, then by i).
    """
    if not vs:
        raise InvalidInputError("need at least one vector")
    forms = [canonicalize(v) for v in vs]
    sizes: dict[int, list[int]] = {}
    for i, form in enumerate(forms):
        sizes.setdefault(len(form.weights), []).append(i)
    root = np.arange(len(vs))  # each vector's class, named by its smallest member
    refusals = []  # (j, i, match) of each block's first pair that disagrees
    for idx in (np.array(group) for group in sizes.values() if len(group) > 1):
        w = np.array([forms[i].weights for i in idx.tolist()])
        step = max(1, _MAX_STACK_ELEMENTS // w.size)
        for lo in range(0, idx.size, step):
            rows, js = w[lo : lo + step, None], idx[lo : lo + step]
            match = (np.abs(rows - w) <= _EQUIV_TOL * np.maximum(rows, w)).all(axis=-1)
            for j, i in zip(js.tolist(), idx[match.argmax(axis=1)].tolist()):
                root[j] = root[i]
            bad = (match != (root[js, None] == root[idx])) & (idx < js[:, None])
            refusals += [(js[r], idx[c], match[r, c]) for r, c in np.argwhere(bad)[:1]]
    if refusals:
        j, i, matched = min(refusals)
        how = "match but fall in two classes" if matched else "fall in one class but do not match"
        raise ArithmeticError(
            f"equivalence within relative {_EQUIV_TOL:g} is not transitive on these "
            f"vectors: vectors[{i}] and vectors[{j}] {how}"
        )
    classes: dict[int, list[int]] = {}
    for k, r in enumerate(root.tolist()):
        classes.setdefault(r, []).append(k)
    return EquivalencePartition(
        tuple(map(tuple, classes.values())),
        tuple(tuple(forms[k].scale for k in c) for c in classes.values()),
        len(vs),
    )


def trivial_null_basis(part: EquivalencePartition) -> list[tuple[float, ...]]:
    """Coefficient vectors that annihilate the norm curves class by class.

    For a class with members (k_0, ..., k_s) and scales (l_0, ..., l_s),
    member i satisfies ||v_{k_i}||_p = l_i * w(p) with w the class weight
    curve, so (alpha_{k_0}, alpha_{k_i}) = (l_i, -l_0) sums to zero for
    every p.  Classes of size one contribute nothing.
    """
    basis: list[tuple[float, ...]] = []
    for members, lams in zip(part.classes, part.scales):
        for i in range(1, len(members)):
            alpha = [0.0] * part.n
            alpha[members[0]] = lams[i]
            alpha[members[i]] = -lams[0]
            basis.append(tuple(alpha))
    return basis
