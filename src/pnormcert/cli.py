"""Batch front-end: JSON job in, JSON certificate out, CSV curves out.

Every job runs on one thread, its items in input order.  Certificates are
deterministic: the payload section is byte-identical across runs for the
same job file.  Wall-clock timing lives outside the payload for exactly that
reason.  Floats that JSON cannot carry (inf, nan) are encoded as strings.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field, fields

import orjson

from . import __version__
from .continuation import loop_monodromies
from .dependence import (
    CONSISTENT,
    DEFAULT_INTERVAL,
    ILL_CONDITIONED,
    UNEXPECTED,
    NormMatrix,
    SampleGrid,
    analyze,
    build_matrix,
    default_grid_count,
    make_grid,
)
from .errors import InvalidInputError, MonodromyMismatchError
from .exppoly import (
    DEFAULT_WINDOW,
    Rectangle,
    ZeroSet,
    _check_reach,
    _searched_together,
    find_zeros,
    from_vector,
)
from .vectors import EquivalencePartition, RealVector, _scale_ratio, partition

SCHEMA_VERSION = 1
# The commands that certify a sampled norm table: only they read the
# interval, and only they write --curves.
TABLE_COMMANDS = ("norms", "analyze")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNEXPECTED = 2
EXIT_ILL_CONDITIONED = 3
# Exit codes by analyze classification, and by error class: an error takes
# the code of the first class in its MRO here (MonodromyMismatchError exits 2).
_EXIT_CODES = {
    CONSISTENT: EXIT_OK,
    UNEXPECTED: EXIT_UNEXPECTED,
    ILL_CONDITIONED: EXIT_ILL_CONDITIONED,
}
_ERROR_EXITS = {
    InvalidInputError: EXIT_INPUT,
    MonodromyMismatchError: EXIT_UNEXPECTED,
    ArithmeticError: EXIT_ILL_CONDITIONED,
    RuntimeError: EXIT_ILL_CONDITIONED,
}


def _as_float(value, where: str) -> float:
    """Accept JSON numbers or round-trippable decimal strings, incl. 'inf'."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise InvalidInputError(f"{where}: expected a number, got {value!r}")
    try:
        x = float(value)
    except ValueError:
        raise InvalidInputError(f"{where}: cannot parse {value!r} as a number") from None
    except OverflowError:
        raise InvalidInputError(f"{where}: integer too large for a float") from None
    if math.isnan(x):
        raise InvalidInputError(f"{where}: nan is not allowed")
    return x


def _as_finite_positive(value, where: str) -> float:
    x = _as_float(value, where)
    if not x > 0:
        raise InvalidInputError(f"{where}: must be positive, got {x}")
    if math.isinf(x):
        raise InvalidInputError(f"{where}: must be finite")
    return x


def _as_index(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise InvalidInputError(f"{where}: expected an integer >= 0")
    return value


def _as_base_ps(value, where: str) -> tuple[float, ...]:
    items = value if isinstance(value, list) else [value]
    if not items:
        raise InvalidInputError(f"{where}: expected a number or non-empty list")
    return tuple(_as_finite_positive(x, f"{where}[{i}]") for i, x in enumerate(items))


def _as_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise InvalidInputError(f"{where}: expected a boolean")
    return value


def _as_interval(value, where: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise InvalidInputError(f"{where}: expected [a, b]")
    a = _as_float(value[0], f"{where}[0]")
    b = _as_float(value[1], f"{where}[1]")
    if math.isinf(a) or not 1.0 <= a < b:
        raise InvalidInputError(f"{where}: need 1 <= a < b, got [{a}, {b}]")
    return (a, b)


def _as_window(value, where: str) -> Rectangle:
    """A window object; an axis it leaves out keeps the default bounds."""
    if not isinstance(value, dict):
        raise InvalidInputError(f"{where}: expected an object")
    _check_keys(value, {"re", "im"}, where)
    w = DEFAULT_WINDOW
    bounds = {"re": (w.re_min, w.re_max), "im": (w.im_min, w.im_max)}
    for axis, pair in value.items():
        if not isinstance(pair, list) or len(pair) != 2:
            raise InvalidInputError(f"{where}.{axis}: expected [lo, hi]")
        lo = _as_float(pair[0], f"{where}.{axis}[0]")
        hi = _as_float(pair[1], f"{where}.{axis}[1]")
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise InvalidInputError(f"{where}.{axis}: need finite lo < hi")
        # so that no inflation of the window is out of the search's reach
        _check_reach(f"{where}.{axis}", lo, hi, headroom=True)
        bounds[axis] = (lo, hi)
    return Rectangle(*bounds["re"], *bounds["im"])


def _field(key: str, default, check, commands):
    """A settable job field: its key (under "options" unless it is interval or
    window), its default, the check that turns its JSON value into the
    attribute (null passes where the default is None), and the commands that
    read it (any other command rejects it)."""
    return field(default=default, metadata={"key": key, "check": check, "commands": commands})


@dataclass(frozen=True)
class JobSpec:
    command: str
    vectors: tuple[RealVector, ...]
    interval: tuple[float, float] = _field(
        "interval", DEFAULT_INTERVAL, _as_interval, TABLE_COMMANDS
    )
    # analyze reads the window only with include_zero_evidence (see _reads)
    window: Rectangle = _field(
        "window", DEFAULT_WINDOW, _as_window, ("zeros", "monodromy", "analyze")
    )
    base_ps: tuple[float, ...] = _field("base_p", (2.0,), _as_base_ps, ("monodromy",))
    radius: float = _field("radius", 0.25, _as_finite_positive, ("monodromy",))
    target_index: int | None = _field("target_index", None, _as_index, ("monodromy",))
    include_zero_evidence: bool = _field(
        "include_zero_evidence", False, _as_bool, ("analyze",)
    )


# The settable job fields by their key, in JobSpec order, and those of them
# that sit under "options".
FIELDS = {f.metadata["key"]: f for f in fields(JobSpec) if f.metadata}
OPTIONS = {key: f for key, f in FIELDS.items() if key not in ("interval", "window")}


def _reads(job: JobSpec, key: str) -> bool:
    """Whether ``job`` reads the field ``key``: its command must be among the
    field's commands, and analyze reads the window only with zero evidence."""
    if key == "window" and job.command == "analyze":
        return job.include_zero_evidence
    return job.command in FIELDS[key].metadata["commands"]


@dataclass(frozen=True)
class Certificate:
    version: str
    schema: int
    command: str
    input: dict
    payload: dict
    timing_ms: float

    def to_json(self) -> str:
        # Each top-level key on a line of its own, so that a tool can drop the
        # "timing_ms" line and compare the rest of two runs byte for byte
        # (bench/oracle.py does).  Each value is what json.dumps writes
        # compactly with sorted keys; _dumps writes the number tables
        # (_Numbers) from orjson's digits in those same bytes.
        lines = [
            f'  "{name}": ' + _dumps(getattr(self, name))
            for name in sorted(f.name for f in fields(self))
        ]
        return "{\n" + ",\n".join(lines) + "\n}\n"


def _check_keys(obj: dict, allowed, where: str) -> None:
    unknown = sorted(set(obj).difference(allowed))
    if unknown:
        raise InvalidInputError(f"{where}: unknown field(s) {', '.join(unknown)}")


def parse_jobspec(text: str, command: str | None = None) -> JobSpec:
    """Parse and validate a job file; fills documented defaults.

    ``command`` (from the command line) must agree with the file's
    command field when both are present.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise InvalidInputError(
            f"malformed JSON at line {err.lineno} column {err.colno}: {err.msg}"
        ) from None
    except ValueError:  # the one other ValueError json.loads raises
        raise InvalidInputError(
            f"malformed JSON: an integer literal has over {sys.get_int_max_str_digits()} digits"
        ) from None
    except RecursionError:
        raise InvalidInputError("malformed JSON: nested too deeply") from None
    if not isinstance(raw, dict):
        raise InvalidInputError("job file must contain a JSON object")
    _check_keys(
        raw,
        {"schema", "command", "vectors", "interval", "window", "options"},
        "job",
    )
    schema = raw.get("schema", SCHEMA_VERSION)
    # a JSON integer only: true and 1.0 compare equal to 1 in Python
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise InvalidInputError(f"schema: unsupported version {schema!r}")
    file_cmd = raw.get("command")
    if file_cmd is not None and file_cmd not in COMMANDS:
        raise InvalidInputError(f"command: must be one of {', '.join(COMMANDS)}")
    if command is not None and file_cmd is not None and command != file_cmd:
        raise InvalidInputError(
            f"command: job file says {file_cmd!r} but {command!r} was requested"
        )
    cmd = command or file_cmd
    if cmd is None:
        raise InvalidInputError("command: missing (give it in the file or CLI)")

    if "vectors" not in raw:
        raise InvalidInputError("vectors: required field is missing")
    if not isinstance(raw["vectors"], list) or not raw["vectors"]:
        raise InvalidInputError("vectors: expected a non-empty list")
    vectors = []
    for k, item in enumerate(raw["vectors"]):
        if not isinstance(item, list) or not item:
            raise InvalidInputError(f"vectors[{k}]: expected a non-empty list of numbers")
        # a float that is not nan passes _as_float as itself; only another
        # coordinate pays for its field name
        coords = tuple(
            x if type(x) is float and x == x else _as_float(x, f"vectors[{k}][{j}]")
            for j, x in enumerate(item)
        )
        try:
            vectors.append(RealVector(coords))
        except InvalidInputError as err:
            raise InvalidInputError(f"vectors[{k}]: {err}") from None

    opts = raw.get("options", {})
    if not isinstance(opts, dict):
        raise InvalidInputError("options: expected an object")
    _check_keys(opts, OPTIONS, "options")
    values = {}
    for key, f in FIELDS.items():
        section, where = (opts, f"options.{key}") if key in OPTIONS else (raw, key)
        if key in section:
            if cmd not in f.metadata["commands"]:
                raise InvalidInputError(f"{where}: not read by {cmd}")
            value = section[key]
            if value is not None or f.default is not None:
                value = f.metadata["check"](value, where)
            values[f.name] = value
    job = JobSpec(cmd, tuple(vectors), **values)
    if "window" in values and not _reads(job, "window"):
        raise InvalidInputError(
            "window: analyze reads it only with options.include_zero_evidence true"
        )
    if _reads(job, "interval"):
        try:
            make_grid(*job.interval, default_grid_count(len(vectors)))
        except InvalidInputError as err:
            raise InvalidInputError(f"interval: {err}") from None
    return job


# ---------------------------------------------------------------------------
# JSON encoding of domain values
# ---------------------------------------------------------------------------


class _Numbers(list):
    """A list that holds only finite floats, 64-bit ints, lists of them, or
    dicts of them whose keys are made of letters and underscores.  ``_dumps``
    writes it from orjson's digits; anything else in it raises, never writes
    other bytes."""


# orjson writes the shortest round-trip digits, as repr does, and lays them
# out as repr does except in two places.  Its exponent has no "+" and no
# leading zero (1e16, 1e-6 for 1e+16, 1e-06): an "e" after a digit is always
# an exponent, since no key holds a digit.  And it writes [1e-5, 1e-4) in
# fixed form (0.0000999 for 9.99e-05): such a token starts "0.0000" with no
# digit before it, unlike the middle of 10.00000837.
_EXPONENT = re.compile(r"e(?<=[0-9]e)(-?)([0-9]+)")
_FIXED_SMALL = re.compile(r"0\.0000(?<![0-9]0\.0000)[0-9]+")
_NULL = re.compile(r"[\[,:]null")
# a quote that neither opens a key of letters ("beta":) nor closes one
_NOT_A_KEY = re.compile(r'"(?<![A-Za-z_]")(?![A-Za-z_]+":)')


def _plain_float(obj) -> float:
    """orjson's fallback: a float subclass (numpy.float64) is written as its
    float, as json.dumps writes it; any other type raises."""
    if isinstance(obj, float):
        return float(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _numbers_json(value: _Numbers) -> str:
    """``json.dumps(value, sort_keys=True, allow_nan=False)``, byte for byte."""
    text = orjson.dumps(value, default=_plain_float, option=orjson.OPT_SORT_KEYS).decode()
    if "null" in text and _NULL.search(text):
        # orjson writes inf, nan and None as null
        raise ValueError("a _Numbers value holds inf, nan or None")
    if '"' in text and _NOT_A_KEY.search(text):
        raise TypeError("a _Numbers value holds a string or a key that is not letters")
    text = text.replace(",", ", ").replace(":", ": ")
    if "e" in text:
        text = _EXPONENT.sub(lambda m: "e" + (m[1] or "+") + m[2].rjust(2, "0"), text)
    if "0.0000" in text:
        text = _FIXED_SMALL.sub(lambda m: repr(float(m[0])), text)
    return text


def _holds_numbers(value) -> bool:
    return isinstance(value, _Numbers) or (
        isinstance(value, dict) and any(map(_holds_numbers, value.values()))
    )


# json.dumps(value, sort_keys=True, allow_nan=False) builds this encoder on
# every call
_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)


def _dumps(value) -> str:
    """``json.dumps(value, sort_keys=True, allow_nan=False)``, byte for byte.
    A _Numbers value, and a dict with str keys that holds one, are joined
    here; every other value is the standard encoder's."""
    if isinstance(value, _Numbers):
        return _numbers_json(value)
    if _holds_numbers(value) and all(isinstance(k, str) for k in value):
        items = (_ENCODER.encode(k) + ": " + _dumps(value[k]) for k in sorted(value))
        return "{" + ", ".join(items) + "}"
    return _ENCODER.encode(value)


def _enc_float(x: float):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return float(x)


def _enc_complex(z: complex) -> dict:
    return {"re": _enc_float(z.real), "im": _enc_float(z.imag)}


def _enc_rect(r: Rectangle) -> dict:
    return {"re": [r.re_min, r.re_max], "im": [r.im_min, r.im_max]}


def _enc_zeroset(zs: ZeroSet) -> dict:
    return {
        "window": _enc_rect(zs.window),
        "total": zs.total,
        "zeros": [
            {
                "re": z.location.real,
                "im": z.location.imag,
                "multiplicity": z.multiplicity,
                "refined": z.refined,
            }
            for z in zs.zeros
        ],
    }


def _enc_grid(grid: SampleGrid) -> dict:
    return {
        "a": grid.a,
        "b": _enc_float(grid.b),
        "points": _Numbers(grid.points),
        "include_infinity": grid.include_infinity,
    }


def _enc_matrix(matrix: NormMatrix) -> dict:
    return {
        "grid": _enc_grid(matrix.grid),
        "norms": _Numbers(matrix.entries.tolist()),
        "column_scales": _Numbers(matrix.column_scales.tolist()),
    }


def _enc_partition(part: EquivalencePartition) -> dict:
    return {"classes": [list(c) for c in part.classes], "scales": [list(s) for s in part.scales]}


def _enc_field(value):
    if isinstance(value, Rectangle):
        return _enc_rect(value)
    if isinstance(value, tuple):
        return [_enc_float(x) for x in value]
    return _enc_float(value) if isinstance(value, float) else value


def _echo_input(job: JobSpec) -> dict:
    """The job as a job file that sets every field its command reads."""
    echo = {
        "schema": SCHEMA_VERSION,
        "command": job.command,
        "vectors": _Numbers(list(v.coords) for v in job.vectors),
        "options": {},
    }
    for key, f in FIELDS.items():
        if _reads(job, key):
            section = echo["options"] if key in OPTIONS else echo
            section[key] = _enc_field(getattr(job, f.name))
    return echo


# ---------------------------------------------------------------------------
# Command payloads
# ---------------------------------------------------------------------------


def _run_zeros(job: JobSpec) -> dict:
    polys = [from_vector(v) for v in job.vectors]
    # one zero search for the job; each vector's result is still its own
    with _searched_together(polys):
        results = [
            {"vector_index": k, **_enc_zeroset(find_zeros(f, job.window))}
            for k, f in enumerate(polys)
        ]
    return {"requested_window": _enc_rect(job.window), "results": results}


def _run_norms(job: JobSpec) -> dict:
    grid = make_grid(*job.interval, default_grid_count(len(job.vectors)))
    return _enc_matrix(build_matrix(list(job.vectors), grid))


def _run_monodromy(job: JobSpec) -> dict:
    out = []
    for k, v in enumerate(job.vectors):
        f = from_vector(v)
        zs = find_zeros(f, job.window)
        if job.target_index is not None:
            if job.target_index >= len(zs.zeros):
                raise InvalidInputError(
                    f"options.target_index: only {len(zs.zeros)} zeros in the window"
                )
            targets = [zs.zeros[job.target_index]]
        else:
            targets = list(zs.zeros)
        others = [
            tuple(w.location for w in zs.zeros if w.location != zero.location)
            for zero in targets
        ]
        pairs = loop_monodromies(f, targets, job.base_ps, job.radius, other_zeros=others)
        loops = [
            {
                "zero": _enc_complex(zero.location),
                "multiplicity": zero.multiplicity,
                "base_p": bp,
                "radius": job.radius,
                "measured": _enc_complex(measured),
                "predicted": _enc_complex(predicted),
                "rel_error": abs(measured - predicted) / abs(predicted),
            }
            for (zero, bp), (measured, predicted) in zip(
                itertools.product(targets, job.base_ps), pairs
            )
        ]
        out.append(
            {"vector_index": k, "window": _enc_rect(zs.window), "loops": loops}
        )
    return {"results": out}


def _run_equiv(job: JobSpec) -> dict:
    part = partition(list(job.vectors))
    # each vector's (index, class, canonical scale), in vector order
    classes = enumerate(zip(part.classes, part.scales))
    member = sorted((k, c, s) for c, (ks, ss) in classes for k, s in zip(ks, ss))
    pairs = []
    for (i, ci, si), (j, cj, sj) in itertools.combinations(member, 2):
        ratio = _scale_ratio(si, sj) if ci == cj else None
        pairs.append({"i": i, "j": j, "equivalent": ci == cj, "ratio": ratio})
    return {"partition": _enc_partition(part), "pairs": pairs}


def _run_analyze(job: JobSpec) -> dict:
    report = analyze(
        list(job.vectors),
        *job.interval,
        zero_window=job.window if _reads(job, "window") else None,
    )
    return {
        "classification": report.classification,
        "numeric_rank": report.numeric_rank,
        "rank_gap": _enc_float(report.rank_gap),
        "singular_values": [_enc_float(s) for s in report.singular_values],
        "null_basis": _Numbers(list(alpha) for alpha in report.null_basis),
        "principal_angle": report.principal_angle,
        "partition": _enc_partition(report.partition),
        "ratio_checks": _Numbers(
            {"i": i, "j": j, "a": fit.a, "beta": fit.beta, "residual": fit.residual}
            for i, j, fit in report.ratio_checks
        ),
        "zero_checks": [
            {"i": i, "j": j, "equal": flag} for i, j, flag in report.zero_checks
        ],
        "notes": list(report.notes),
        **_enc_matrix(report.matrix),
    }


# Each command's payload builder, in the order the CLI lists the commands.
_RUNNERS = {
    "zeros": _run_zeros,
    "norms": _run_norms,
    "monodromy": _run_monodromy,
    "equiv": _run_equiv,
    "analyze": _run_analyze,
}
COMMANDS = tuple(_RUNNERS)


def run(job: JobSpec, threads: int = 1) -> tuple[Certificate, int]:
    """Execute a job; returns the certificate and the process exit code.

    The job runs on the calling thread; ``threads`` is accepted because
    existing callers pass it, and changes nothing.  Domain errors (bad
    input, failed quadrature, monodromy mismatch) propagate as exceptions;
    ``main`` maps them to exit codes.
    """
    start = time.perf_counter()
    if job.command not in _RUNNERS:
        raise InvalidInputError(f"unknown command {job.command!r}")
    payload = _RUNNERS[job.command](job)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    cert = Certificate(
        __version__, SCHEMA_VERSION, job.command, _echo_input(job), payload, elapsed_ms
    )
    return cert, _EXIT_CODES.get(payload.get("classification"), EXIT_OK)


def emit_curves(vs: list[RealVector], grid: SampleGrid, path: str) -> None:
    """Write the sampled norm curves as CSV: p,norm_1,...,norm_n.

    Values carry 17 significant digits (lossless for doubles); the
    infinity sample, if any, appears as a final row with p = inf.
    """
    _write_files([(path, _curves_csv(_enc_matrix(build_matrix(list(vs), grid))))])


def _curves_csv(matrix: dict) -> str:
    """The CSV of ``emit_curves`` from an encoded matrix (``_enc_matrix``)."""
    grid, rows = matrix["grid"], matrix["norms"]
    labels = ["%.17g" % p for p in grid["points"]]
    if grid["include_infinity"]:
        labels.append("inf")
    lines = ["p," + ",".join(f"norm_{k + 1}" for k in range(len(rows[0])))]
    for label, row in zip(labels, rows):
        lines.append(label + "," + ",".join("%.17g" % x for x in row))
    return "\n".join(lines) + "\n"


def _write_files(files: list[tuple[str, str]]) -> None:
    """Write each (path, text) in order.  If one write fails, remove every
    file this call opened and raise InvalidInputError naming the path."""
    opened = []
    for path, text in files:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                opened.append(path)
                fh.write(text)
        except OSError as err:
            for done in opened:
                with contextlib.suppress(OSError):
                    os.remove(done)
            raise InvalidInputError(f"cannot write {path}: {err}") from err


# Built once: building a parser costs several times what parsing does.
_PARSER = argparse.ArgumentParser(
    prog="pnormcert",
    description="Certify linear (in)dependence of p-norm curves and "
    "inspect the complex-analytic machinery behind it.",
)
_PARSER.add_argument("command", choices=COMMANDS)
_PARSER.add_argument("--input", required=True, help="job JSON file")
_PARSER.add_argument("--output", help="certificate path (default: stdout)")
_PARSER.add_argument("--curves", help="also write the norm table as CSV (norms, analyze)")
_PARSER.add_argument(
    "--threads", type=int, default=1, help="at least 1; every job runs on one thread"
)


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        print(f"error: cannot read {args.input}: {err}", file=sys.stderr)
        return EXIT_INPUT
    try:
        job = parse_jobspec(text, args.command)
        if args.threads < 1:
            raise InvalidInputError("--threads must be at least 1")
        if args.curves:
            if job.command not in TABLE_COMMANDS:
                raise InvalidInputError(f"--curves: {job.command} certifies no norm table")
            if args.output and os.path.realpath(args.curves) == os.path.realpath(args.output):
                raise InvalidInputError("--curves: same file as --output")
        cert, exit_code = run(job, args.threads)
        text = cert.to_json()
        files = [(args.output, text)] if args.output else []
        if args.curves:
            files.append((args.curves, _curves_csv(cert.payload)))
        _write_files(files)  # all artifacts or none
        if not args.output:
            sys.stdout.write(text)
        return exit_code
    except tuple(_ERROR_EXITS) as err:
        print(f"error: {err}", file=sys.stderr)
        return next(_ERROR_EXITS[k] for k in type(err).__mro__ if k in _ERROR_EXITS)


if __name__ == "__main__":
    sys.exit(main())
