"""Seeded job generator with planted ground truth.

Every job is a pnormcert job file plus what the generator already knows
about its answer: the equivalence partition it planted, the class count,
the coefficients of two-term exponential sums (whose zeros have a closed
form), and the exit codes the job may legitimately end with.  Nothing
here imports or runs pnormcert; the truth comes from construction alone.

The same (workload, seed) pair always yields the same jobs, byte for
byte.  Each workload fixes the shape of its job set (sizes, kinds and
counts); the seed only draws the numbers, so run-to-run differences in
cost come from the program, not from a different mix of sizes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# Exit codes of the pnormcert CLI.
OK, ILL_CONDITIONED = 0, 3

# analyze may honestly end ill-conditioned; unexpected-dependence is what
# the theorem forbids for these planted families.
ANALYZE_CODES = frozenset({OK, ILL_CONDITIONED})
RUN_CODES = frozenset({OK})


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the truth its certificate is checked against.

    ``classes`` is the planted partition in pnormcert's order (classes by
    smallest member, members ascending); ``two_term`` maps a vector index
    to (beta_1, c_1, beta_2, c_2) for sums c_1 e^(beta_1 p) + c_2 e^(beta_2 p).
    """

    name: str
    doc: dict
    curves: bool = False
    expect_codes: frozenset = RUN_CODES
    classes: tuple[tuple[int, ...], ...] | None = None
    two_term: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.doc["command"]

    @property
    def n_classes(self) -> int | None:
        return None if self.classes is None else len(self.classes)


def _signed(rng: random.Random, mag: float) -> float:
    return mag if rng.random() < 0.5 else -mag


def _weights(mags: list[float]) -> tuple[float, ...]:
    top = max(mags)
    return tuple(sorted((m / top for m in mags), reverse=True))


def _base_vectors(rng: random.Random, k: int, dims=(2, 4)) -> list[list[float]]:
    """``k`` pairwise inequivalent vectors with magnitudes in (0.1, 5).

    Redraws a vector whose scale-free weights come within 1e-6 of an
    earlier one, so the planted classes stay apart far beyond pnormcert's
    default equivalence tolerance (1e-9).
    """
    out: list[list[float]] = []
    seen: list[tuple[float, ...]] = []
    while len(out) < k:
        mags = [rng.uniform(0.1, 5.0) for _ in range(rng.randint(*dims))]
        w = _weights(mags)
        if any(
            len(s) == len(w) and all(abs(x - y) <= 1e-6 * max(x, y) for x, y in zip(s, w))
            for s in seen
        ):
            continue
        seen.append(w)
        out.append([_signed(rng, m) for m in mags])
    return out


def _copy(rng: random.Random, v: list[float]) -> list[float]:
    """An equivalent vector: permuted, negated, rescaled and zero-padded."""
    scale = rng.uniform(0.5, 2.0)
    c = [_signed(rng, abs(x) * scale) for x in v] + [0.0] * rng.randint(0, 2)
    rng.shuffle(c)
    return c


def planted_family(
    rng: random.Random, k: int, max_copies: int = 2, dims=(2, 4)
) -> tuple[list[list[float]], tuple[tuple[int, ...], ...]]:
    """``k`` classes, base vector c plus ``c % (max_copies + 1)`` copies, shuffled.

    The copy counts are fixed so that a family's size does not depend on
    the seed.  Returns the vectors and the partition pnormcert must report.
    """
    labelled = []
    for c, base in enumerate(_base_vectors(rng, k, dims)):
        labelled.append((c, base))
        labelled.extend((c, _copy(rng, base)) for _ in range(c % (max_copies + 1)))
    rng.shuffle(labelled)
    members: dict[int, list[int]] = {}
    for i, (c, _) in enumerate(labelled):
        members.setdefault(c, []).append(i)
    classes = tuple(sorted(tuple(m) for m in members.values()))
    return [v for _, v in labelled], classes


def two_term_params(v: list[float]) -> tuple[float, int, float, int] | None:
    """(beta_1, c_1, beta_2, c_2) when ``v`` has exactly two distinct magnitudes."""
    counts: dict[float, int] = {}
    for x in v:
        if x != 0.0:
            counts[abs(x)] = counts.get(abs(x), 0) + 1
    if len(counts) != 2:
        return None
    (m1, c1), (m2, c2) = sorted(counts.items())
    return math.log(m1), c1, math.log(m2), c2


def two_term_zeros(params, re_lo, re_hi, im_lo, im_hi) -> list[complex]:
    """Zeros of c_1 e^(b_1 p) + c_2 e^(b_2 p) in the closed rectangle.

    They solve (b_2 - b_1) p = ln(c_1/c_2) + i pi (2k+1).
    """
    b1, c1, b2, c2 = params
    d = b2 - b1
    re = math.log(c1 / c2) / d
    if not re_lo <= re <= re_hi:
        return []
    k = math.ceil((im_lo * d / math.pi - 1.0) / 2.0)
    out = []
    while (im := math.pi * (2 * k + 1) / d) <= im_hi:
        if im >= im_lo:
            out.append(complex(re, im))
        k += 1
    return out


def _two_terms(vectors: list[list[float]]) -> dict:
    return {k: p for k, v in enumerate(vectors) if (p := two_term_params(v)) is not None}


def _window(im_hi: float) -> dict:
    return {"re": [-1.0, 1.0], "im": [0.5, im_hi]}


def _interval(i: int) -> list:
    return [1, 4] if i % 2 == 0 else [1, "inf"]


# ---------------------------------------------------------------------------
# Vector kinds for the zero finder
# ---------------------------------------------------------------------------


def _two_term_vector(
    rng: random.Random, lo=0.1, hi=5.0, max_coords=6, equal_counts=False
) -> list[float]:
    """Two magnitudes at least 20% apart, each repeated 1-2 times, zero-padded.

    With equal repeat counts every zero lies on the imaginary axis.
    """
    a = rng.uniform(lo, hi)
    while abs(math.log((b := rng.uniform(lo, hi)) / a)) < 0.2:
        pass
    c1 = rng.choice((1, 1, 2))
    c2 = c1 if equal_counts or rng.random() < 0.5 else rng.choice((1, 2))
    v = [_signed(rng, a) for _ in range(c1)] + [_signed(rng, b) for _ in range(c2)]
    v += [0.0] * rng.randint(0, max_coords - len(v))
    rng.shuffle(v)
    return v


def _loop_vector(rng: random.Random) -> list[float]:
    """Two magnitudes e^d apart, d in [2, 2.4], zero-padded.

    The zeros i pi (2k+1) / d lie on the imaginary axis; exactly three of
    them (k = 0, 1, 2) have height in [0.5, 8.5], none near its edges.
    """
    a = rng.uniform(0.1, 0.45)
    v = [_signed(rng, a), _signed(rng, a * math.exp(rng.uniform(2.0, 2.4)))]
    v += [0.0] * rng.randint(0, 2)
    rng.shuffle(v)
    return v


def _generic_vector(rng: random.Random, dims=(3, 6)) -> list[float]:
    return [_signed(rng, rng.uniform(0.1, 5.0)) for _ in range(rng.randint(*dims))]


def _spanned(rng: random.Random, span: float, count: int, lo: float, hi: float) -> list[float]:
    """``count`` magnitudes in [lo, hi] whose log range is exactly ``span``.

    The extremes are m and m e^span, the rest log-uniform between.  A
    sum's zero count in a window grows with its log range, so pinning the
    range keeps the cost of a zeros job independent of the seed.
    """
    m = math.exp(rng.uniform(math.log(lo), math.log(hi) - span))
    return [m, m * math.exp(span)] + [m * math.exp(span * rng.random()) for _ in range(count - 2)]


def _pinned_two_term(rng: random.Random, span: float, count: int) -> list[float]:
    """Two magnitudes e^span apart, each 1-2 times, zero-padded to ``count``."""
    a, b = _spanned(rng, span, 2, 0.1, 5.0)
    v = [_signed(rng, a) for _ in range(rng.choice((1, 1, 2)))]
    v += [_signed(rng, b) for _ in range(rng.choice((1, 1, 2)))]
    v += [0.0] * max(0, count - len(v))
    rng.shuffle(v)
    return v


def _repeated_vector(rng: random.Random, span: float, count: int) -> list[float]:
    """Three distinct magnitudes, one of them repeated (a coefficient > 1)."""
    mags = _spanned(rng, span, 3, 0.1, 5.0)
    mags += [mags[rng.randrange(3)]] * (count - 3)
    v = [_signed(rng, m) for m in mags]
    rng.shuffle(v)
    return v


def _wide_vector(rng: random.Random, span: float, count: int) -> list[float]:
    """Magnitudes spread over up to four decades: dense zeros."""
    v = [_signed(rng, m) for m in _spanned(rng, span, count, 1e-2, 1e2)]
    rng.shuffle(v)
    return v


def _pinned_generic(rng: random.Random, span: float, count: int) -> list[float]:
    v = [_signed(rng, m) for m in _spanned(rng, span, count, 0.1, 5.0)]
    rng.shuffle(v)
    return v


# Zeros-job vector kinds, each with the log ranges and lengths its vectors
# cycle through.  The ranges cover what free draws of each kind give.
_ZERO_KINDS = (
    (_pinned_two_term, (0.5, 1.5, 2.5, 3.5), (2, 4, 6)),
    (_repeated_vector, (2.0, 2.5, 3.0, 3.5), (4, 5, 6)),
    (_wide_vector, (4.0, 5.5, 7.0, 8.5), (3, 4, 5, 6)),
    (_pinned_generic, (2.0, 2.5, 3.0, 3.5), (3, 4, 5, 6)),
)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

# Class counts of the analyze-families job set, one family each.  Families
# hold two vectors per class on average (15 to 127 vectors); the ratio
# evidence costs grow with the square of the class count.  Sorted by cost,
# the median and the 90th percentile of a pass fall inside runs of equal
# class counts (10 and 24), so they do not hinge on one family's numbers.
FAMILY_CLASSES = (8,) * 8 + (9,) * 4 + (10,) * 16 + (12,) * 4 + (24,) * 7 + (64,)


def analyze_families(rng: random.Random) -> list[Job]:
    jobs = []
    for i, k in enumerate(FAMILY_CLASSES):
        vectors, classes = planted_family(rng, k)
        doc = {"schema": 1, "command": "analyze", "vectors": vectors, "interval": _interval(i)}
        jobs.append(
            Job(f"family-{i:02d}-k{k}", doc, expect_codes=ANALYZE_CODES, classes=classes)
        )
    return jobs


def zeros_monodromy(rng: random.Random) -> list[Job]:
    jobs = []
    for i in range(24):
        vectors = []
        for j in range(2 + i % 3):
            kind, spans, counts = _ZERO_KINDS[(i + j) % len(_ZERO_KINDS)]
            vectors.append(kind(rng, spans[i % len(spans)], counts[(i + j) % len(counts)]))
        doc = {"schema": 1, "command": "zeros", "vectors": vectors}
        jobs.append(Job(f"zeros-{i:02d}", doc, two_term=_two_terms(vectors)))
    # Loops around exactly three zeros each, so these jobs cost alike and
    # the median job of the workload falls among them.
    for i in range(30):
        vectors = [_loop_vector(rng)]
        doc = {
            "schema": 1,
            "command": "monodromy",
            "vectors": vectors,
            "window": _window(8.5),
            "options": {"base_p": [2, 3.5], "radius": 0.1},
        }
        jobs.append(Job(f"monodromy-{i:02d}", doc, two_term=_two_terms(vectors)))
    for i in range(12):
        vectors, classes = planted_family(rng, 2 + i % 2, max_copies=1, dims=(2, 3))
        doc = {
            "schema": 1,
            "command": "analyze",
            "vectors": vectors,
            "interval": [1, 4],
            "window": _window(12.0),
            "options": {"include_zero_evidence": True},
        }
        jobs.append(
            Job(f"analyze-zero-{i:02d}", doc, expect_codes=ANALYZE_CODES, classes=classes)
        )
    return jobs


def small_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for i in range(16):
        vectors = [_generic_vector(rng, (2, 4)) for _ in range(3 + i % 6)]
        doc = {"schema": 1, "command": "norms", "vectors": vectors, "interval": _interval(i)}
        jobs.append(Job(f"norms-{i:02d}", doc, curves=True))

        vectors, classes = planted_family(rng, 6 + i % 3)
        doc = {"schema": 1, "command": "equiv", "vectors": vectors}
        jobs.append(Job(f"equiv-{i:02d}", doc, classes=classes))

        vectors, classes = planted_family(rng, 2 + i % 2, max_copies=1)
        doc = {"schema": 1, "command": "analyze", "vectors": vectors, "interval": _interval(i)}
        jobs.append(
            Job(f"analyze-{i:02d}", doc, curves=True, expect_codes=ANALYZE_CODES, classes=classes)
        )

        # The window reaches just past the first closed-form zero, so
        # every job has work and target_index 0 always exists.
        vectors = [_two_term_vector(rng, 0.5, 5.0, 4, equal_counts=True)]
        first = _first_zero_height(vectors[0])
        for command, extra in (
            ("zeros", {}),
            ("monodromy", {"options": {"target_index": 0, "radius": 0.1}}),
        ):
            doc = {
                "schema": 1,
                "command": command,
                "vectors": vectors,
                "window": {"re": [-1.0, 1.0], "im": [0.5, first + 1.0]},
                **extra,
            }
            jobs.append(Job(f"{command}-{i:02d}", doc, two_term=_two_terms(vectors)))
    return jobs


def _first_zero_height(v: list[float]) -> float:
    b1, _, b2, _ = two_term_params(v)
    return math.pi / (b2 - b1)


WORKLOADS = {
    "analyze-families": (analyze_families, 1),
    "zeros-monodromy": (zeros_monodromy, 2),
    "small-jobs": (small_jobs, 1),
}


def generate(workload: str, seed: int) -> list[Job]:
    """The job set of ``workload`` for ``seed``; deterministic."""
    make, _ = WORKLOADS[workload]
    return make(random.Random(f"{workload}/{seed}"))
