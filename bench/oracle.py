"""Checks of pnormcert certificates against the generator's planted truth.

Every check recomputes what it needs in plain Python (``math.fsum``
p-norms, closed-form zeros, a direct exponential-sum evaluation) and never
calls pnormcert, so a wrong answer cannot vouch for itself.  Each function
returns a list of problems; an empty list means the artifact passed.
"""

from __future__ import annotations

import cmath
import math
import re

from jobs import Job, two_term_zeros

UNEXPECTED = "unexpected-dependence"
CONSISTENT = "consistent-with-theorem"

_TIMING_LINE = re.compile(rb'\n  "timing_ms": [^\n]*')


def same_payload(reference: bytes, candidate: bytes) -> list[str]:
    """Two certificate files must agree byte for byte, save the wall-clock line."""
    if _TIMING_LINE.sub(b"", reference) == _TIMING_LINE.sub(b"", candidate):
        return []
    return ["payload bytes differ from the single-thread warm-up certificate"]


def pnorm(v: list[float], p: float) -> float:
    """||v||_p with the largest magnitude factored out, summed with fsum."""
    m = max(abs(x) for x in v)
    if math.isinf(p):
        return m
    return m * math.fsum((abs(x) / m) ** p for x in v if x != 0.0) ** (1.0 / p)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def relative_magnitude(v: list[float], z: complex) -> float:
    """|f(z)| / sum_j |c_j e^(beta_j z)| for the exponential sum of ``v``."""
    betas = [math.log(abs(x)) for x in v if x != 0.0]
    top = max(b * z.real for b in betas)
    s = sum(cmath.exp(b * z - top) for b in betas)
    bound = math.fsum(math.exp(b * z.real - top) for b in betas)
    return abs(s) / bound


def check_norms(vectors: list[list[float]], payload: dict, where: str) -> list[str]:
    """Every sampled norm against an independent p-norm, to 1e-12 relative."""
    grid = payload["grid"]
    ps = [float(p) for p in grid["points"]] + ([math.inf] if grid["include_infinity"] else [])
    rows = payload["norms"]
    if len(rows) != len(ps):
        return [f"{where}: {len(rows)} norm rows for {len(ps)} grid samples"]
    for p, row in zip(ps, rows):
        if len(row) != len(vectors):
            return [f"{where}: norm row at p={p} has {len(row)} entries"]
        for k, (v, x) in enumerate(zip(vectors, row)):
            if not _close(float(x), pnorm(v, p), 1e-12):
                return [f"{where}: ||v{k}||_{p} = {x}, expected {pnorm(v, p)!r}"]
    return []


def check_curves(vectors: list[list[float]], csv_text: str) -> list[str]:
    """The --curves CSV: one column per vector, values to 1e-12 relative."""
    lines = csv_text.splitlines()
    if not lines or lines[0] != "p," + ",".join(f"norm_{k + 1}" for k in range(len(vectors))):
        return ["curves: bad header"]
    if len(lines) < 3:
        return ["curves: fewer than two sample rows"]
    for line in lines[1:]:
        p_text, *cells = line.split(",")
        p = float(p_text)
        if len(cells) != len(vectors):
            return [f"curves: row p={p_text} has {len(cells)} values"]
        for k, (v, cell) in enumerate(zip(vectors, cells)):
            if not _close(float(cell), pnorm(v, p), 1e-12):
                return [f"curves: ||v{k}||_{p_text} = {cell}, expected {pnorm(v, p)!r}"]
    return []


def _check_partition(job: Job, part: dict) -> list[str]:
    got = tuple(tuple(c) for c in part["classes"])
    if got != job.classes:
        return [f"partition {got} differs from the planted {job.classes}"]
    return []


def check_analyze(job: Job, payload: dict) -> list[str]:
    problems = []
    if payload["classification"] == UNEXPECTED:
        problems.append("unexpected-dependence reported for a family the theorem covers")
    problems += _check_partition(job, payload["partition"])
    if payload["classification"] == CONSISTENT and payload["numeric_rank"] != job.n_classes:
        problems.append(
            f"consistent with numeric rank {payload['numeric_rank']}, "
            f"but {job.n_classes} classes were planted"
        )
    return problems + check_norms(job.doc["vectors"], payload, "norms")


def check_equiv(job: Job, payload: dict) -> list[str]:
    problems = _check_partition(job, payload["partition"])
    label = {m: c for c, members in enumerate(job.classes) for m in members}
    vectors = job.doc["vectors"]
    for pair in payload["pairs"]:
        i, j = pair["i"], pair["j"]
        same = label[i] == label[j]
        if pair["equivalent"] != same:
            problems.append(f"pair ({i}, {j}) flagged {pair['equivalent']}, planted {same}")
        elif same:
            ratio = max(map(abs, vectors[i])) / max(map(abs, vectors[j]))
            if not _close(pair["ratio"], ratio, 1e-12):
                problems.append(f"pair ({i}, {j}) ratio {pair['ratio']} != {ratio!r}")
    n = len(vectors)
    if len(payload["pairs"]) != n * (n - 1) // 2:
        problems.append(f"{len(payload['pairs'])} pairs for {n} vectors")
    return problems


def _window_bounds(w: dict) -> tuple[float, float, float, float]:
    return float(w["re"][0]), float(w["re"][1]), float(w["im"][0]), float(w["im"][1])


def _check_closed_form(
    found: list[complex], params, window: dict, where: str, complete: bool = True
) -> list[str]:
    """Found zeros against c_1 e^(b_1 p) + c_2 e^(b_2 p) = 0, to 1e-9 relative.

    With ``complete`` every closed-form zero in the window must be found;
    one within 1e-6 of the window edge may fall either way.
    """
    lo_re, hi_re, lo_im, hi_im = _window_bounds(window)
    eps = 1e-6 * math.hypot(hi_re - lo_re, hi_im - lo_im)
    maybe = two_term_zeros(params, lo_re - eps, hi_re + eps, lo_im - eps, hi_im + eps)
    sure = two_term_zeros(params, lo_re + eps, hi_re - eps, lo_im + eps, hi_im - eps)
    unmatched = list(maybe)
    for z in found:
        best = min(unmatched, key=lambda t: abs(t - z), default=None)
        if best is None or abs(best - z) > 1e-9 * abs(best):
            return [f"{where}: zero {z} matches no closed-form zero"]
        unmatched.remove(best)
    missed = [t for t in sure if t in unmatched] if complete else []
    if missed:
        return [f"{where}: closed-form zeros {missed} not found"]
    return []


def _check_zero_set(job: Job, k: int, result: dict) -> list[str]:
    where = f"vector {k}"
    zeros = result["zeros"]
    problems = []
    if result["total"] != sum(z["multiplicity"] for z in zeros):
        problems.append(f"{where}: total {result['total']} != sum of multiplicities")
    v = job.doc["vectors"][k]
    for z in zeros:
        loc = complex(z["re"], z["im"])
        if z["refined"] and relative_magnitude(v, loc) > 1e-12:
            problems.append(
                f"{where}: refined zero {loc} has relative |f| {relative_magnitude(v, loc):.2e}"
            )
    if k in job.two_term:
        for z in zeros:
            if z["multiplicity"] != 1:
                problems.append(f"{where}: two-term zero with multiplicity {z['multiplicity']}")
        found = [complex(z["re"], z["im"]) for z in zeros]
        problems += _check_closed_form(found, job.two_term[k], result["window"], where)
    return problems


def check_zeros(job: Job, payload: dict) -> list[str]:
    problems = []
    for k, result in enumerate(payload["results"]):
        problems += _check_zero_set(job, k, result)
    return problems


def check_monodromy(job: Job, payload: dict) -> list[str]:
    problems = []
    base_ps = job.doc.get("options", {}).get("base_p", 2.0)
    base_ps = base_ps if isinstance(base_ps, list) else [base_ps]
    for k, result in enumerate(payload["results"]):
        loops = result["loops"]
        for loop in loops:
            measured = complex(loop["measured"]["re"], loop["measured"]["im"])
            predicted = cmath.exp(2j * math.pi * loop["multiplicity"] / loop["base_p"])
            err = abs(measured - predicted) / abs(predicted)
            if err > 1e-6 or loop["rel_error"] > 1e-6:
                problems.append(f"vector {k}: loop rel_error {err:.2e} (reported {loop['rel_error']})")
        zeros = [complex(loop["zero"]["re"], loop["zero"]["im"]) for loop in loops]
        if len(loops) % len(base_ps):
            problems.append(f"vector {k}: {len(loops)} loops for {len(base_ps)} base points")
        elif k in job.two_term:
            targeted = "target_index" in job.doc.get("options", {})
            problems += _check_closed_form(
                zeros[:: len(base_ps)], job.two_term[k], result["window"], f"vector {k}",
                complete=not targeted,
            )
    return problems


CHECKS = {
    "analyze": check_analyze,
    "equiv": check_equiv,
    "zeros": check_zeros,
    "monodromy": check_monodromy,
    "norms": lambda job, payload: check_norms(job.doc["vectors"], payload, "norms"),
}


def check_certificate(job: Job, cert: dict) -> list[str]:
    """All oracle checks that apply to ``job``'s certificate."""
    return CHECKS[job.command](job, cert["payload"])
