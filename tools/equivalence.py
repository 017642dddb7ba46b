"""Compare the certificates of two source trees over the benchmark's jobs.

    python3 tools/equivalence.py <parent_src> <change_src>

Each ``src`` directory holds a ``pnormcert`` package.  The jobs are those
``bench/jobs.py`` of this checkout generates for every workload and the
seeds 101-103; each tree runs all of them once through ``cli.main`` with
``--threads 1``, in a fresh interpreter of its own.  The two runs must
agree on every exit code, every CSV table and every payload field,
totals, multiplicities and ``refined`` flags included, except the
coordinates of zeros (an entry of a ``zeros`` list, or a loop's
``zero``), which may move by at most ``ZERO_REL_TOL`` of |z|.

It also reports ``byte_identical``, the number of jobs whose certificate
text, less its ``timing_ms`` line, and CSV are the same bytes in both
trees.  That count is information; the rule above decides ``equivalent``.

Each run also counts its kernel work: the ``exppoly._parts`` calls and
their term-points (terms x points, over every sum of a stacked call), by
workload and by the function that asked for them, and by workload summed
over those functions, so work that only moves from one function to
another reads the same (``same_per_workload``).  Next to it, it counts
the calls of the stages named in ``STAGES`` by workload and command: a
``_contour_sums`` call is a count round (a window try or a round of box
halves) and a ``_hankel_solve`` call a Hankel solve (of one box, or of a
stack of boxes); and the calls of the public ``find_zeros`` and
``count_zeros`` (``ENTRIES``), inner calls included, so a change shows
that it keeps the calls the benchmark's tracer counts; and, by workload,
command and entry, the errors those calls raise by exception type
(``entry_errors``), so a change shows that it refuses the same windows
with the same errors (a window try that ``find_zeros`` inflates is a
``count_zeros`` call that raised).  It also counts,
by workload and command, the boxes that each ``_count_adaptive`` round
counts (the pieces of the boxes being split), and how many of them come
back empty (a count of 0) or refused (an error): ``boxes_counted``.

It then runs the jobs of ``REFUSALS`` (``tools/refusals.json``), a
fixed corpus of jobs that are refused or that recover from a refusal, in
another fresh interpreter per tree.  Each must exit with the same code
and write the same bytes to stderr in both trees; the benchmark's jobs
all succeed, so this is where a change shows that it keeps the error
paths.

It reports each tree's line count of its ``**/*.py`` files as
``src_lines``, and as ``code_lines`` the count of those lines that are
not blank, comment-only or docstrings, so a change's net source lines
come with its verdict, and reformatting cannot fake a reduction.

Prints one JSON object and exits 0 when the trees are equivalent, 1 when
they are not.
"""

from __future__ import annotations

import ast
import collections
import concurrent.futures
import contextlib
import hashlib
import io
import json
import multiprocessing
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "bench"
# job documents whose exit code and stderr must be the same in both trees
REFUSALS = Path(__file__).resolve().with_name("refusals.json")
SEEDS = (101, 102, 103)
ZERO_REL_TOL = 1e-12
# the line that differs between two runs of one job (bench/oracle.py drops it too)
TIMING_LINE = re.compile(r'\n  "timing_ms": [^\n]*')
# zero-search stages whose calls are counted, where a tree has them
STAGES = ("_contour_sums", "_hankel_solve")
# public entry points into the zero search whose calls are counted, under
# every name a ``pnormcert`` module binds them to (``cli`` binds its own
# ``find_zeros``), as the benchmark's tracer sees them
ENTRIES = ("find_zeros", "count_zeros")


def term_points(f, ps) -> int:
    """Terms x points of one kernel call, summed over the sums of a stacked ``f``."""
    return np.size(f.exponents) * np.size(ps)


def src_lines(src: str) -> int:
    """The lines of every ``.py`` file under ``src``."""
    return sum(len(path.read_bytes().splitlines()) for path in Path(src).rglob("*.py"))


def code_lines(src: str) -> int:
    """The lines of every ``.py`` file under ``src`` that hold code: not
    blank, not a comment alone and not part of a docstring (a statement
    that is a string alone, found with ``ast``)."""
    total = 0
    for path in Path(src).rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        docs = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
                if isinstance(node.value.value, str):
                    docs.update(range(node.lineno, node.end_lineno + 1))
        total += sum(
            1
            for number, line in enumerate(text.splitlines(), 1)
            if number not in docs and line.strip() and not line.lstrip().startswith("#")
        )
    return total


def run_tree(src: str) -> dict:
    """Every job's exit code, payload, CSV and the SHA-256 of its certificate
    text less the timing line, under the package in ``src``, the kernel
    work by workload and caller, the calls of ``STAGES`` and ``ENTRIES`` and
    the errors ``ENTRIES`` raise by workload and command, and the boxes
    ``_count_adaptive`` counts."""
    cli = load_cli(src, str(BENCH))
    import jobs  # bench/jobs.py
    from pnormcert import exppoly

    kernel = exppoly._parts
    # (workload, caller) -> [calls, term-points]
    work: dict = collections.defaultdict(lambda: [0, 0])
    workload = None

    def counted(f, ps, *args, **kwargs):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "_chunked_parts":
            caller = caller.f_back
        entry = work[workload, caller.f_code.co_name]
        entry[0] += 1
        entry[1] += term_points(f, ps)
        return kernel(f, ps, *args, **kwargs)

    exppoly._parts = counted
    # (workload, command, stage) -> calls
    calls: collections.Counter = collections.Counter()
    key = None
    count_stages(exppoly, calls, lambda: key)
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "pnormcert"]
    # (workload, command, entry, exception type) -> raises
    raised: collections.Counter = collections.Counter()
    count_entries(exppoly, modules, calls, lambda: key, raised)
    # (workload, command) -> [counted, empty, refused]
    boxes: dict = collections.defaultdict(lambda: [0, 0, 0])
    count_boxes(exppoly, boxes, lambda: key)

    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in jobs.WORKLOADS:
            for seed in SEEDS:
                for job in jobs.generate(workload, seed):
                    name = f"{workload}/{seed}/{job.name}"
                    key = workload, job.command
                    path, cert, csv = (Path(tmp) / f"job.{ext}" for ext in ("json", "cert", "csv"))
                    for artifact in (cert, csv):
                        artifact.unlink(missing_ok=True)
                    path.write_text(json.dumps(job.doc), encoding="utf-8")
                    argv = [job.command, "--input", str(path), "--output", str(cert)]
                    argv += ["--curves", str(csv)] if job.curves else []
                    with contextlib.redirect_stderr(io.StringIO()):
                        code = cli.main(argv + ["--threads", "1"])
                    text = cert.read_text() if cert.exists() else None
                    runs[name] = (
                        code,
                        json.loads(text)["payload"] if text is not None else None,
                        csv.read_text() if csv.exists() else None,
                        text and hashlib.sha256(TIMING_LINE.sub("", text).encode()).hexdigest(),
                    )
    return {
        "runs": runs,
        "work": {f"{w}/{c}": v for (w, c), v in work.items()},
        "stages": {"/".join(k): v for k, v in sorted(calls.items())},
        "errors": {"/".join(k): v for k, v in sorted(raised.items())},
        "boxes": {"/".join(k): v for k, v in sorted(boxes.items())},
    }


def load_cli(src: str, *paths: str):
    """``pnormcert.cli`` of the package in ``src``, with ``paths`` also
    put first on ``sys.path``; refuses a ``pnormcert`` imported from
    anywhere else."""
    sys.path[:0] = [src, *paths]
    from pnormcert import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"equivalence: pnormcert was imported from {cli.__file__}, not {src}")
    return cli


def run_refusals(src: str) -> dict:
    """The exit code and stderr of each job of ``REFUSALS`` under the
    package in ``src``, by job name."""
    cli = load_cli(src)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path, cert = Path(tmp) / "job.json", Path(tmp) / "job.cert"
        for job in json.loads(REFUSALS.read_text(encoding="utf-8")):
            path.write_text(json.dumps(job["doc"]), encoding="utf-8")
            argv = [job["doc"]["command"], "--input", str(path), "--output", str(cert)]
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(argv + ["--threads", "1"])
            out[job["name"]] = (code, err.getvalue())
    return out


def counting(fn, calls: collections.Counter, where, name: str, raised=None):
    """``fn``, also counting its calls in ``calls`` under ``(*where(), name)``
    and, given the Counter ``raised``, the errors it raises there under
    ``(*where(), name, the exception's type name)``."""

    def run(*args, **kwargs):
        calls[(*where(), name)] += 1
        try:
            return fn(*args, **kwargs)
        except Exception as error:
            if raised is not None:
                raised[(*where(), name, type(error).__name__)] += 1
            raise

    return run


def count_stages(module, calls: collections.Counter, where) -> None:
    """Replace each function of ``STAGES`` that ``module`` has by one that
    also counts its calls in ``calls``, under ``(*where(), stage)``."""
    for stage in STAGES:
        if hasattr(module, stage):
            setattr(module, stage, counting(getattr(module, stage), calls, where, stage))


def count_entries(owner, modules: list, calls: collections.Counter, where, raised=None) -> None:
    """Replace each function of ``ENTRIES`` that ``owner`` defines, under
    every name any of ``modules`` binds it to, by one that also counts its
    calls in ``calls``, under ``(*where(), name)``, and the errors it
    raises in ``raised`` (``counting``)."""
    for name in ENTRIES:
        real = getattr(owner, name)
        counted = counting(real, calls, where, name, raised)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is real:
                    setattr(module, attr, counted)


def count_boxes(module, boxes: dict, where) -> None:
    """Replace ``module._count_adaptive`` by one that also adds, under
    ``where()`` in ``boxes`` (a defaultdict of [0, 0, 0]), the boxes each
    call counts, those whose count is 0 and those refused with an error."""
    real = module._count_adaptive

    def run(edges, counted_boxes):
        counts = real(edges, counted_boxes)
        entry = boxes[where()]
        entry[0] += len(counts)
        entry[1] += sum(n == 0 for n in counts if not isinstance(n, Exception))
        entry[2] += sum(isinstance(n, Exception) for n in counts)
        return counts

    module._count_adaptive = run


def kernel_work(parent: dict, change: dict) -> dict:
    """The two trees' kernel work (``workload/caller: [calls, term-points]``)
    as it is and summed over callers per workload, with whether those sums
    agree."""
    per_workload = {}
    for side, work in (("parent", parent), ("change", change)):
        totals = per_workload[side] = {}
        for key, (calls, points) in sorted(work.items()):
            entry = totals.setdefault(key.split("/")[0], [0, 0])
            entry[0] += calls
            entry[1] += points
    return {
        "keys": "workload/caller: [calls, term-points]",
        "parent": parent,
        "change": change,
        "per_workload": per_workload,
        "same_per_workload": per_workload["parent"] == per_workload["change"],
    }


def differences(a, b, path: tuple, moves: list[float]):
    """The paths at which payloads ``a`` and ``b`` differ; each zero's move
    relative to |z| in ``a`` is appended to ``moves`` instead."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        if path and (path[-1] == "zero" or (len(path) > 1 and path[-2] == "zeros")):
            za, zb = complex(a["re"], a["im"]), complex(b["re"], b["im"])
            moves.append(abs(za - zb) / abs(za) if za else abs(zb) * float("inf"))
            a, b = ({k: v for k, v in d.items() if k not in ("re", "im")} for d in (a, b))
        for key in a:
            yield from differences(a[key], b[key], path + (key,), moves)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from differences(x, y, path + (i,), moves)
    elif type(a) is not type(b) or a != b:
        yield path


def compare(parent: dict, change: dict) -> dict:
    """The verdict on two trees' runs of the same jobs."""
    codes, fields, moves = [], [], []
    identical = 0
    for name, (code, payload, csv, cert) in parent["runs"].items():
        code_b, payload_b, csv_b, cert_b = change["runs"][name]
        identical += cert == cert_b and csv == csv_b
        if code != code_b:
            codes.append(f"{name}: exit {code} -> {code_b}")
        if csv != csv_b:
            fields.append(f"{name}: curves CSV")
        fields += [
            f"{name}: {'.'.join(map(str, path))}"
            for path in differences(payload, payload_b, (), moves)
        ]
    moved = [m for m in moves if m != 0]
    worst = max(moves, default=0.0)
    refusals = parent.get("refusals", {})
    refused = []
    for name, (code, err) in refusals.items():
        code_b, err_b = change["refusals"][name]
        if code != code_b:
            refused.append(f"{name}: exit {code} -> {code_b}")
        if err != err_b:
            refused.append(f"{name}: stderr {err!r} -> {err_b!r}")
    return {
        "jobs": len(parent["runs"]),
        "exit_code_differences": codes,
        "field_differences": fields,
        "zeros": len(moves),
        "zeros_moved": len(moved),
        "max_zero_move_rel": worst,
        "byte_identical": identical,
        "refusal_jobs": len(refusals),
        "refusal_differences": refused,
        "equivalent": not codes and not fields and not refused and worst <= ZERO_REL_TOL,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[1].strip())
    # one fresh interpreter per tree and run: the two packages share a name,
    # and no refusal job runs under run_tree's counters
    spawn = multiprocessing.get_context("spawn")
    srcs = [str(Path(src).resolve()) for src in argv]
    with concurrent.futures.ProcessPoolExecutor(2, mp_context=spawn, max_tasks_per_child=1) as pool:
        parent, change = pool.map(run_tree, srcs)
        parent["refusals"], change["refusals"] = pool.map(run_refusals, srcs)
    verdict = compare(parent, change)
    verdict["src_lines"] = dict(zip(("parent", "change"), map(src_lines, argv)))
    verdict["code_lines"] = dict(zip(("parent", "change"), map(code_lines, argv)))
    verdict["kernel_work"] = kernel_work(parent["work"], change["work"])
    verdict["stage_calls"] = {
        "keys": "workload/command/stage: calls",
        "parent": parent["stages"],
        "change": change["stages"],
    }
    verdict["entry_errors"] = {
        "keys": "workload/command/entry/exception type: raises",
        "parent": parent["errors"],
        "change": change["errors"],
    }
    verdict["boxes_counted"] = {
        "keys": "workload/command: [boxes counted, empty, refused]",
        "parent": parent["boxes"],
        "change": change["boxes"],
    }
    print(json.dumps(verdict, indent=1, sort_keys=True))
    return 0 if verdict["equivalent"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
