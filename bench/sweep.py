"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 bench/sweep.py --workloads small-jobs --seeds 101-105 --seconds 10
    python3 bench/sweep.py --seeds 101-110 --json spread.json

For every workload and end-to-end metric it prints the median over the
seeds, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (q3 - q1) / median, next to the bound in ``BENCHMARK.json``, and
for every seed with failed jobs, which jobs failed and why.
Runs are made one after another, never two at once.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int) -> tuple[dict, float, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    failures = [line[len("# FAILED "):] for line in lines if line.startswith("# FAILED ")]
    return json.loads(lines[-1]), wall, failures


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="101-110")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--json", help="write the summaries to this file")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    out = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        walls, correct, by_seed = [], True, []
        for seed in seeds(args.seeds):
            result, wall, failures = run(workload, seed, args.seconds)
            walls.append(wall)
            correct &= result["correct"]
            by_seed.append([seed, result["failed"], result["attempted"], result["correct"], failures])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: correct {correct}, run wall {min(walls):.1f}-{max(walls):.1f} s")
        out[workload] = {}
        for name, vals in values.items():
            s = out[workload][name] = summary(vals)
            flag = "  OVER A THIRD OF BOUND" if s["spread"] > bounds[name] / 3 else ""
            print(f"  {name:16s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.3f} (bound {bounds[name]}){flag}")
            print(f"  {'':16s} " + " ".join(f"{v:.4g}" for v in vals))
        out[workload]["failed_by_seed"] = by_seed
        for seed, failed, attempted, _, failures in by_seed:
            if failed:
                print(f"  seed {seed}: {failed} of {attempted} failed: {'; '.join(failures)}")
        sys.stdout.flush()
    if args.json:
        Path(args.json).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
