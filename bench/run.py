"""pnormcert benchmark: seeded job workloads timed through ``cli.main``.

Run from the repository root:

    python3 bench/run.py --workload analyze-families --seed 1 --seconds 20 --trace 0

The generator in ``jobs.py`` writes the workload's job files from the
seed.  Each job then runs in-process through ``cli.main(argv)``, exactly
what a user runs: parse, run, encode, write the certificate and the
``--curves`` CSV.  One client, closed loop: the next job starts when the
previous one has returned.

Set-up is measured as a cold start: a fresh interpreter imports the
package and runs the first job of each command once.  Each cold start is
followed by a reference start: a fresh interpreter that imports this
file (NumPy and the standard library, no pnormcert) and runs
``probe()``.  ``setup_s`` is the median cold start times
``START_REF_S`` over the median reference start, plus the median of
``GENERATIONS`` job generations; ``COLD_STARTS`` of each are made,
spread over the timed region between passes.  Process start-up and
imports slowed by 40% between two sets of runs an hour apart while the
probe below did not move, so they get a reference of their own kind.
Before timing, one warm-up pass runs every job with ``--threads 1``; its
artifacts are the reference bytes.

The timed region repeats whole passes, each in a seeded shuffled order,
with the workload's thread count, for about ``--seconds`` and at least
``MIN_PASSES`` passes.  The percentiles and the throughput are taken over
every timed execution.

Host speed is factored out of the job times.  On a shared few-core host
the speed of a core moves by a third and more over minutes, as
neighbours come and go, which moves every time metric with it.  So
between jobs, at most every ``PROBE_EVERY_S``, the run times ``probe()``:
a fixed mix of interpreter and small-array NumPy work that runs no
pnormcert code.  Each execution's time is then multiplied by
``PROBE_REF_S`` over the median of the probes taken within
``PROBE_WINDOW_S`` of it, and the metrics are computed from the scaled
times: the values the run would read on a host where the probe takes
``PROBE_REF_S``.  The raw values are printed too.
What this does not see: work the program leaves running between jobs
(a busy thread) slows the probe as well, so it is factored out with the
host.

Every certificate is checked against the planted truth (``oracle.py``)
outside the timed region, and its payload bytes must equal the warm-up's.

With ``--trace 1`` the timed region is instead a fixed number of untraced
passes, each followed by one with the spans of ``spans.py`` installed, and
the per-layer metrics are reported.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

import argparse
import bisect
import contextlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# p90 needs at least ten samples beyond it; every job runs at least twice.
MIN_SAMPLES = 100
MIN_PASSES = 2
GENERATIONS = 3
COLD_STARTS = 5
# The host probe: how often it runs between jobs, and the probe time that
# the job times are scaled to (a round figure; medians of 2.6-4.9 ms were
# seen on a shared 2-vCPU Xeon VM).
PROBE_EVERY_S = 0.1
PROBE_REF_S = 0.004
# Probes this close to the middle of an execution scale its time.  The
# host's speed holds for a few seconds at a time, so a local median beats
# the run's median (on analyze-families over five seeds, p90 spread 0.06
# against 0.14).
PROBE_WINDOW_S = 1.5
# A fresh interpreter: import the package, run each argv once, print the
# seconds taken.  Interpreter start-up itself is left out.
COLD_START = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from pnormcert import cli
for argv in json.loads(sys.argv[2]):
    cli.main(argv)
print(time.perf_counter() - start)
"""
# The same for this file and its probe: a fresh interpreter's start-up
# cost without pnormcert, and the figure setup_s is scaled to (a round
# figure; medians of 0.11-0.13 s were seen on a shared 2-vCPU Xeon VM).
REFERENCE_START = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import run
run.probe()
print(time.perf_counter() - start)
"""
START_REF_S = 0.12
# Passes of the traced region; fixed per workload so that call counts
# compare across commits.
TRACE_PASSES = {"analyze-families": 1, "zeros-monodromy": 2, "small-jobs": 4}
# Spans called on every workload; only their times go into the result
# line, the rest are printed with their calls.
TIMED_SPANS = (
    "cli.main",
    "cli.parse_jobspec",
    "cli.run",
    "cli.to_json",
    "vectors.partition",
    "vectors.canonicalize",
    "exppoly.from_vector",
    "exppoly.ratio_factor",
    "exppoly.evaluate_log",
    "continuation.pnorm_at",
    "dependence.analyze",
    "dependence.make_grid",
    "dependence.build_matrix",
    "dependence.numeric_rank",
)


def probe() -> float:
    """Seconds for a fixed mix of interpreter and small-array NumPy work.

    It runs no pnormcert code, so its time follows the host's speed and
    not the program's.
    """
    start = time.perf_counter()
    x = np.linspace(0.1, 5.0, 64)
    acc = 0.0
    for i in range(200):
        acc += float(np.log(np.abs(np.exp(x * (1.0 + i / 400.0))).sum()))
        acc += sum(math.sqrt(k + i) for k in range(60))
    json.dumps([acc] * 200)
    np.linalg.svd(np.outer(x, x) + np.eye(64))
    return time.perf_counter() - start


def fresh_interpreter(code: str, *args: str) -> float:
    """Run ``code`` in a new interpreter; the seconds it printed last."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=150
    )
    if proc.returncode != 0:
        raise SystemExit(f"bench: fresh interpreter failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def import_cli():
    """pnormcert.cli from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        from pnormcert import cli
    except ImportError as err:
        raise SystemExit(f"bench: cannot import pnormcert from {SRC}: {err}") from None
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: pnormcert was imported from {cli.__file__}, not {SRC}")
    return cli


@dataclass
class Result:
    """What one execution of a job left behind, and what was wrong with it."""

    code: int | None
    cert: bytes | None
    curves: bytes | None
    problems: list[str]
    certified: bool | None = None
    zeros: int = 0
    refined: int = 0

    @property
    def wrong(self) -> bool:
        """A failure that is not an honest refusal.

        Exit 1 (input rejected) or 3 (numerical failure) with no
        certificate is a refusal: the job failed, but claimed nothing.
        """
        refused = self.code in (1, 3) and self.cert is None
        return bool(self.problems) and not refused


@dataclass
class Sample:
    """Timed executions, their verdicts and the host probes between them."""

    seconds: list[float] = field(default_factory=list)
    middles: list[float] = field(default_factory=list)
    results: list[Result] = field(default_factory=list)
    failures: dict[str, str] = field(default_factory=dict)
    probe_at: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)

    def maybe_probe(self) -> None:
        if not self.probe_at or time.perf_counter() >= self.probe_at[-1] + PROBE_EVERY_S:
            self.probes.append(probe())
            self.probe_at.append(time.perf_counter())

    def without_host(self) -> list[float]:
        """Each execution's time scaled to the reference probe time."""
        overall = statistics.median(self.probes)
        scaled = []
        for middle, elapsed in zip(self.middles, self.seconds):
            lo = bisect.bisect_left(self.probe_at, middle - PROBE_WINDOW_S)
            hi = bisect.bisect_right(self.probe_at, middle + PROBE_WINDOW_S)
            near = statistics.median(self.probes[lo:hi]) if hi > lo else overall
            scaled.append(elapsed * PROBE_REF_S / near)
        return scaled


class Bench:
    """The job files of one workload and the runs made over them."""

    def __init__(self, cli, oracle, jobs, threads: int, workdir: Path):
        self.cli = cli
        self.oracle = oracle
        self.jobs = jobs
        self.threads = threads
        self.argv: list[list[str]] = []
        self.outputs: list[tuple[Path, Path | None]] = []
        for job in jobs:
            path = workdir / f"{job.name}.json"
            path.write_text(json.dumps(job.doc), encoding="utf-8")
            cert = workdir / f"{job.name}.cert"
            curves = workdir / f"{job.name}.csv" if job.curves else None
            argv = [job.command, "--input", str(path), "--output", str(cert)]
            if curves is not None:
                argv += ["--curves", str(curves)]
            self.argv.append(argv)
            self.outputs.append((cert, curves))
        self.reference: list[Result] = []

    def execute(self, i: int, threads: int) -> tuple[float, float, int | None, str]:
        """Run job ``i`` once through cli.main; only the call is timed.

        Returns the seconds taken, the moment halfway through, the exit
        code and what the job wrote to stderr.
        """
        for path in self.outputs[i]:
            if path is not None:
                path.unlink(missing_ok=True)
        argv = self.argv[i] + ["--threads", str(threads)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # an escaped exception is a failed job
                code = None
                print(f"{type(exc).__name__}: {exc}", file=err)
            elapsed = time.perf_counter() - start
        return elapsed, start + elapsed / 2, code, err.getvalue().strip()

    def _artifacts(self, i: int) -> tuple[bytes | None, bytes | None]:
        return tuple(
            path.read_bytes() if path is not None and path.exists() else None
            for path in self.outputs[i]
        )

    def check(self, i: int, code: int | None, stderr: str) -> Result:
        """Oracle verdict on job ``i``'s artifacts from its last execution."""
        job = self.jobs[i]
        cert, curves = self._artifacts(i)
        result = Result(code, cert, curves, [])
        if code not in job.expect_codes:
            result.problems.append(f"exit {code}: {stderr or 'no message'}")
        if cert is None:
            if code in job.expect_codes:
                result.problems.append("no certificate written")
            return result
        doc = json.loads(cert)
        result.problems += self.oracle.check_certificate(job, doc)
        if job.curves:
            if curves is None:
                result.problems.append("no curves written")
            else:
                result.problems += self.oracle.check_curves(
                    job.doc["vectors"], curves.decode("utf-8")
                )
        payload = doc["payload"]
        if job.command == "analyze":
            result.certified = payload["classification"] == self.oracle.CONSISTENT
        elif job.command == "zeros":
            zeros = [z for r in payload["results"] for z in r["zeros"]]
            result.zeros = len(zeros)
            result.refined = sum(1 for z in zeros if z["refined"])
        return result

    def cold_start(self) -> tuple[float, float]:
        """Seconds a fresh interpreter takes to import the package and run
        the first job of each command once, and then a reference start."""
        first: dict[str, list[str]] = {}
        for job, argv in zip(self.jobs, self.argv):
            first.setdefault(job.command, argv + ["--threads", str(self.threads)])
        cold = fresh_interpreter(COLD_START, str(SRC), json.dumps(list(first.values())))
        return cold, fresh_interpreter(REFERENCE_START, str(Path(__file__).resolve().parent))

    def warm_up(self) -> float:
        """One single-thread pass; its artifacts are the reference bytes."""
        total = 0.0
        for i in range(len(self.jobs)):
            elapsed, _, code, stderr = self.execute(i, 1)
            total += elapsed
            self.reference.append(self.check(i, code, stderr))
        return total

    def timed_pass(self, sample: Sample, order: list[int]) -> None:
        for i in order:
            job = self.jobs[i]
            elapsed, middle, code, stderr = self.execute(i, self.threads)
            sample.seconds.append(elapsed)
            sample.middles.append(middle)
            ref = self.reference[i]
            cert, curves = self._artifacts(i)
            drift = [] if cert is None or ref.cert is None else self.oracle.same_payload(ref.cert, cert)
            if curves != ref.curves:
                drift.append("curves CSV differs from the single-thread warm-up")
            if code == ref.code and cert is not None and not drift:
                # Same bytes as the warm-up, so the same oracle verdict.
                result = ref
            else:
                result = self.check(i, code, stderr)
                result.problems += drift
            sample.results.append(result)
            if result.problems:
                sample.failures.setdefault(job.name, result.problems[0])
            sample.maybe_probe()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def rate(seconds: list[float]) -> float:
    """Jobs per second of job time."""
    return len(seconds) / sum(seconds)


def end_to_end(
    sample: Sample, seconds: list[float], setup_s: float
) -> tuple[dict[str, float], dict[str, str]]:
    """The end-to-end metrics, with job times ``seconds``."""
    results = sample.results
    analyzed = [r.certified for r in results if r.certified is not None]
    zeros = sum(r.zeros for r in results)
    failed = sum(1 for r in results if r.problems)
    metrics = {
        "setup_s": (setup_s, "s"),
        "job_p50_ms": (1000.0 * statistics.median(seconds), "ms"),
        "job_p90_ms": (1000.0 * percentile(seconds, 0.9), "ms"),
        "jobs_per_s": (rate(seconds), "1/s"),
        "fail_ratio": (failed / len(results), "ratio"),
        # No analyze job, or no zero reported: nothing was left uncertified.
        "certified_ratio": (sum(analyzed) / len(analyzed) if analyzed else 1.0, "ratio"),
        "refined_ratio": (sum(r.refined for r in results) / zeros if zeros else 1.0, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {k: v for k, (v, _) in metrics.items()}, {k: u for k, (_, u) in metrics.items()}


# Printed but left out of the result object.  fail_ratio is zero whenever
# no job fails, so its share of a median is undefined; the result object
# carries it as ``failed`` / ``attempted``.  peak_rss_mb is set by the one
# largest contour array of the run, so on zeros-monodromy it moves by a
# quarter from seed to seed, more than any bound could hold.
NOT_IN_RESULT = ("fail_ratio", "peak_rss_mb")


def per_layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def in_result(name: str) -> bool:
    for suffix in (".s", ".self_s"):
        if name.endswith(suffix):
            return name[: -len(suffix)] in TIMED_SPANS
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    import jobs as jobs_module
    import oracle

    if args.workload not in jobs_module.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(jobs_module.WORKLOADS)}")

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        gen_s = []
        docs = None
        for _ in range(GENERATIONS):
            start = time.perf_counter()
            jobs = jobs_module.generate(args.workload, args.seed)
            bench = Bench(cli, oracle, jobs, jobs_module.WORKLOADS[args.workload][1], workdir)
            gen_s.append(time.perf_counter() - start)
            if docs is not None and docs != [j.doc for j in jobs]:
                raise SystemExit("bench: the generator is not deterministic")
            docs = [j.doc for j in jobs]
        warm_s = bench.warm_up()
        cold_s: list[tuple[float, float]] = []
        orders = random.Random(f"order/{args.workload}/{args.seed}")

        def timed_pass(into: Sample) -> None:
            order = list(range(len(jobs)))
            orders.shuffle(order)
            bench.timed_pass(into, order)

        sample = Sample()
        if args.trace:
            # Untraced and traced passes alternate, so that drift in the
            # machine's speed cancels out of the overhead ratio.
            import spans

            traced = Sample()
            tracer = spans.Tracer()
            passes = TRACE_PASSES[args.workload]
            for _ in range(passes):
                timed_pass(sample)
                tracer.install()
                try:
                    timed_pass(traced)
                finally:
                    tracer.uninstall()
            metrics = tracer.report()
            metrics["trace.overhead_ratio"] = rate(traced.seconds) / rate(sample.seconds)
            units = {name: per_layer_unit(name) for name in metrics}
            sample.results += traced.results
            sample.failures.update(traced.failures)
        else:
            least = max(MIN_PASSES, math.ceil(MIN_SAMPLES / len(jobs)))
            passes, pass_s = 0, 0.0
            start = time.perf_counter()
            while True:
                began = time.perf_counter()
                timed_pass(sample)
                pass_s += time.perf_counter() - began
                passes += 1
                elapsed = time.perf_counter() - start
                # Cold starts are spread over the run, so that one slow
                # spell of the host cannot set all of them.
                if len(cold_s) < min(COLD_STARTS, math.ceil(COLD_STARTS * elapsed / args.seconds)):
                    cold_s.append(bench.cold_start())
                # Stop before a pass that would end past --seconds.
                if passes >= least and time.perf_counter() - start + pass_s / passes > args.seconds:
                    break
            while len(cold_s) < COLD_STARTS:
                cold_s.append(bench.cold_start())
            cold = statistics.median(c for c, _ in cold_s)
            reference = statistics.median(r for _, r in cold_s)
            raw, _ = end_to_end(sample, sample.seconds, cold + statistics.median(gen_s))
            metrics, units = end_to_end(
                sample,
                sample.without_host(),
                cold * START_REF_S / reference + statistics.median(gen_s),
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    attempted = len(sample.results)
    failed = sum(1 for r in sample.results if r.problems)
    print(
        f"# {args.workload} seed {args.seed}: {len(jobs)} jobs, {passes} "
        f"{'traced and untraced' if args.trace else 'timed'} passes (threads {bench.threads}), "
        f"{attempted} executions, {failed} failed"
    )
    print(
        f"# cold/reference starts {' '.join(f'{c:.3f}/{r:.3f}' for c, r in cold_s) or 'not run'} s; "
        f"generation median {statistics.median(gen_s):.4f} s; warm-up pass {warm_s:.3f} s"
    )
    if not args.trace:
        print(
            f"# host: median probe {1000 * statistics.median(sample.probes):.3f} ms over "
            f"{len(sample.probes)} probes; raw "
            + ", ".join(f"{name} {raw[name]:.6g}" for name in ("setup_s", "job_p50_ms", "job_p90_ms", "jobs_per_s"))
        )
    for name, problem in sorted(sample.failures.items()):
        print(f"# FAILED {name}: {problem}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    keep = in_result if args.trace else (lambda name: name not in NOT_IN_RESULT)
    result = {
        "correct": not any(r.wrong for r in sample.results),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
            if keep(name)
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
