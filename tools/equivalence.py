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
another reads the same (``same_per_workload``).

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
SEEDS = (101, 102, 103)
ZERO_REL_TOL = 1e-12
# the line that differs between two runs of one job (bench/oracle.py drops it too)
TIMING_LINE = re.compile(r'\n  "timing_ms": [^\n]*')


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
    text less the timing line, under the package in ``src``, and the kernel
    work by workload and caller."""
    sys.path[:0] = [src, str(BENCH)]
    import jobs  # bench/jobs.py
    from pnormcert import cli, exppoly

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"equivalence: pnormcert was imported from {cli.__file__}, not {src}")
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

    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in jobs.WORKLOADS:
            for seed in SEEDS:
                for job in jobs.generate(workload, seed):
                    name = f"{workload}/{seed}/{job.name}"
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
    return {"runs": runs, "work": {f"{w}/{c}": v for (w, c), v in work.items()}}


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
    return {
        "jobs": len(parent["runs"]),
        "exit_code_differences": codes,
        "field_differences": fields,
        "zeros": len(moves),
        "zeros_moved": len(moved),
        "max_zero_move_rel": worst,
        "byte_identical": identical,
        "equivalent": not codes and not fields and worst <= ZERO_REL_TOL,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[1].strip())
    # one fresh interpreter per tree: the two packages share a name
    spawn = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(2, mp_context=spawn) as pool:
        parent, change = pool.map(run_tree, [str(Path(src).resolve()) for src in argv])
    verdict = compare(parent, change)
    verdict["src_lines"] = dict(zip(("parent", "change"), map(src_lines, argv)))
    verdict["code_lines"] = dict(zip(("parent", "change"), map(code_lines, argv)))
    verdict["kernel_work"] = kernel_work(parent["work"], change["work"])
    print(json.dumps(verdict, indent=1, sort_keys=True))
    return 0 if verdict["equivalent"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
