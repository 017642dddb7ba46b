"""Fast tests of the benchmark's generator, oracle, tracer and host scaling.

Run from the repository root:  python3 -m pytest -q bench
"""

import copy
import json
import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import jobs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from pnormcert import cli, exppoly  # noqa: E402


def certify(job: jobs.Job, threads: int = 1) -> bytes:
    cert, _ = cli.run(cli.parse_jobspec(json.dumps(job.doc)), threads)
    return cert.to_json().encode()


def payload(cert: bytes) -> dict:
    return json.loads(cert)["payload"]


@pytest.fixture(scope="module")
def family_job():
    doc = {
        "command": "analyze",
        "vectors": [[1.0, 2.0], [0.0, -4.0, 2.0], [3.0, 0.5, 1.0], [1.5, 0.25, -0.5]],
        "interval": [1, 4],
    }
    return jobs.Job("family", doc, expect_codes=jobs.ANALYZE_CODES, classes=((0, 1), (2, 3)))


@pytest.fixture(scope="module")
def zeros_job():
    vectors = [[1.0, -3.0], [2.0, 2.0, 0.5, 0.0]]
    doc = {"command": "zeros", "vectors": vectors, "window": {"re": [-1, 1], "im": [0.5, 12]}}
    return jobs.Job("zeros", doc, two_term={k: jobs.two_term_params(v) for k, v in enumerate(vectors)})


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_generator_is_deterministic(workload):
    first = jobs.generate(workload, 11)
    again = jobs.generate(workload, 11)
    assert [j.doc for j in first] == [j.doc for j in again]
    assert [(j.classes, j.two_term, j.expect_codes) for j in first] == [
        (j.classes, j.two_term, j.expect_codes) for j in again
    ]
    assert [j.doc for j in jobs.generate(workload, 12)] != [j.doc for j in first]


def test_zeros_job_log_ranges_do_not_depend_on_the_seed():
    def shapes(seed):
        out = []
        for job in jobs.generate("zeros-monodromy", seed):
            if job.command == "zeros":
                for v in job.doc["vectors"]:
                    logs = [math.log(abs(x)) for x in v if x != 0.0]
                    out.append(round(max(logs) - min(logs), 9))
        return out

    assert shapes(1) == shapes(2)


def test_job_times_are_scaled_by_nearby_probes():
    sample = run.Sample(
        seconds=[0.01, 0.01, 0.01],
        middles=[0.0, 10.0, 100.0],
        probe_at=[0.5, 10.5],
        probes=[0.002, 0.008],
    )
    # The third execution has no probe within the window: the run's median.
    assert sample.without_host() == pytest.approx([0.02, 0.005, 0.008])


def test_planted_classes_follow_the_equivalence_moves():
    vectors, classes = jobs.planted_family(random.Random(3), 6)
    for members in classes:
        weights = {oracle.pnorm(vectors[m], 3.0) / oracle.pnorm(vectors[m], 2.0) for m in members}
        spread = max(weights) / min(weights) - 1.0
        assert spread < 1e-12
    assert sorted(m for c in classes for m in c) == list(range(len(vectors)))


def test_closed_form_zeros_are_zeros():
    params = jobs.two_term_params([2.0, -2.0, 0.3])
    assert params[1:4:2] == (1, 2)
    zeros = jobs.two_term_zeros(params, -1.0, 1.0, 0.5, 30.0)
    assert zeros
    for z in zeros:
        assert oracle.relative_magnitude([2.0, -2.0, 0.3], z) < 1e-13


def test_clean_certificates_pass(family_job, zeros_job):
    assert oracle.check_certificate(family_job, json.loads(certify(family_job))) == []
    assert oracle.check_certificate(zeros_job, json.loads(certify(zeros_job))) == []


def test_oracle_flags_a_merged_class(family_job):
    bad = payload(certify(family_job))
    bad["partition"]["classes"] = [[0, 1, 2, 3]]
    assert any("partition" in p for p in oracle.check_analyze(family_job, bad))


def test_oracle_flags_a_flipped_classification(family_job):
    good = payload(certify(family_job))
    assert good["classification"] == oracle.CONSISTENT
    unexpected = dict(good, classification=oracle.UNEXPECTED)
    assert any("unexpected" in p for p in oracle.check_analyze(family_job, unexpected))
    wrong_rank = dict(good, numeric_rank=good["numeric_rank"] + 1)
    assert any("numeric rank" in p for p in oracle.check_analyze(family_job, wrong_rank))


def test_oracle_flags_a_moved_zero(zeros_job):
    bad = copy.deepcopy(payload(certify(zeros_job)))
    zero = bad["results"][0]["zeros"][0]
    zero["im"] += 1e-6
    problems = oracle.check_zeros(zeros_job, bad)
    assert any("relative |f|" in p for p in problems)
    assert any("closed-form" in p for p in problems)


def test_oracle_flags_a_wrong_total_and_norm(zeros_job, family_job):
    bad = copy.deepcopy(payload(certify(zeros_job)))
    bad["results"][1]["total"] += 1
    assert any("total" in p for p in oracle.check_zeros(zeros_job, bad))
    bad = copy.deepcopy(payload(certify(family_job)))
    bad["norms"][3][1] *= 1 + 1e-11
    assert any("||v1||" in p for p in oracle.check_analyze(family_job, bad))


def test_payload_bytes_differing_between_threads_are_flagged(zeros_job):
    one = certify(zeros_job, threads=1)
    two = certify(zeros_job, threads=2)
    assert oracle.same_payload(one, two) == []
    digit = two.index(b'"im": ', two.index(b'"payload"')) + len(b'"im": ') + 3
    flipped = two[:digit] + (b"1" if two[digit:digit + 1] != b"1" else b"2") + two[digit + 1:]
    assert oracle.same_payload(one, flipped) != []


def test_tracer_sees_every_call_site_and_restores_them(zeros_job):
    original = exppoly.count_zeros
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.find_zeros is exppoly.find_zeros
        assert exppoly.find_zeros.__wrapped__ is not exppoly.find_zeros
        certify(zeros_job, threads=2)
    finally:
        tracer.uninstall()
    assert exppoly.count_zeros is original
    assert cli.find_zeros is exppoly.find_zeros
    report = tracer.report()
    assert report["exppoly.find_zeros.calls"] == len(zeros_job.doc["vectors"])
    assert report["exppoly.count_zeros.calls"] >= report["exppoly.find_zeros.calls"]
    assert report["exppoly.ratio_factor.calls"] == 0
    assert report["exppoly.zeros_found"] > 0
    for name in ("cli.run", "cli.to_json", "exppoly.find_zeros"):
        assert 0.0 < report[f"{name}.self_s"] <= report[f"{name}.s"]
