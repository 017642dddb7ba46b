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

from .errors import InvalidInputError

# Relative tolerance within which two canonical weights count as equal.
_EQUIV_TOL = 1e-9


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
    """Decide equivalence; on success also return scale(u)/scale(v).

    The flag is true iff the canonical weights agree elementwise within
    relative 1e-9; the ratio then satisfies ||u||_p = ratio * ||v||_p
    for every p.  A ratio outside the normal float64 range raises
    OverflowError rather than come back as inf, 0 or a subnormal.
    """
    cu = canonicalize(u)
    cv = canonicalize(v)
    if not _weights_match(cu.weights, cv.weights):
        return False, None
    ratio = cu.scale / cv.scale
    if not sys.float_info.min <= ratio <= sys.float_info.max:
        raise OverflowError(f"scale ratio {cu.scale!r} / {cv.scale!r} leaves the float64 range")
    return True, ratio


def _weights_match(a: tuple[float, ...], b: tuple[float, ...]) -> bool:
    if len(a) != len(b):
        return False
    return all(abs(x - y) <= _EQUIV_TOL * max(x, y) for x, y in zip(a, b))


def partition(vs: list[RealVector]) -> EquivalencePartition:
    """Group vectors into equivalence classes, ordered by smallest member.

    Membership is decided against the class representative (its first
    member), which makes the grouping deterministic.
    """
    if not vs:
        raise InvalidInputError("need at least one vector")
    forms = [canonicalize(v) for v in vs]
    classes: list[list[int]] = []
    scales: list[list[float]] = []
    for i, form in enumerate(forms):
        for c, members in enumerate(classes):
            rep = forms[members[0]]
            if _weights_match(form.weights, rep.weights):
                members.append(i)
                scales[c].append(form.scale)
                break
        else:
            classes.append([i])
            scales.append([form.scale])
    return EquivalencePartition(
        tuple(tuple(c) for c in classes),
        tuple(tuple(s) for s in scales),
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
