import collections
import importlib.util
import json
import math
import sys
import types
from pathlib import Path

import pytest

from pnormcert import (
    BoundaryProximityError,
    ExpPoly,
    QuadratureError,
    RealVector,
    cli,
    exppoly,
)

_PATH = Path(__file__).resolve().parents[1] / "tools" / "equivalence.py"
_SPEC = importlib.util.spec_from_file_location("equivalence", _PATH)
equivalence = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(equivalence)


def run(code=0, im=4.0, refined=True, loop_im=2.0, rel_error=0.0, cert="digest"):
    """One tree's runs of one job: a zeros result and a loop around a zero,
    with the digest of its certificate text."""
    payload = {
        "results": [
            {"total": 1, "zeros": [{"im": im, "multiplicity": 1, "re": 0.0, "refined": refined}]}
        ],
        "loops": [{"rel_error": rel_error, "zero": {"im": loop_im, "re": 1.0}}],
    }
    return {"runs": {"job": (code, payload, "p,norm\n", cert)}}


def test_identical_runs_are_equivalent():
    verdict = equivalence.compare(run(), run())
    assert verdict["equivalent"] and verdict["zeros"] == 2 and verdict["zeros_moved"] == 0
    assert verdict["byte_identical"] == 1


def test_byte_identical_counts_certificate_bytes_and_decides_nothing():
    # the same payload in other bytes (another float layout, say) stays
    # equivalent, and is not counted identical
    verdict = equivalence.compare(run(), run(cert="other digest"))
    assert verdict["equivalent"] and verdict["byte_identical"] == 0
    # nor is a job whose CSV differs
    changed = run()
    changed["runs"]["job"] = changed["runs"]["job"][:2] + ("p,norm\n1,2\n", "digest")
    assert equivalence.compare(run(), changed)["byte_identical"] == 0


def test_a_certificate_digest_drops_only_the_timing_line():
    text = '{\n  "payload": {"x": 1.5},\n  "timing_ms": 12.25,\n  "version": "0.1.0"\n}\n'
    assert equivalence.TIMING_LINE.sub("", text) == (
        '{\n  "payload": {"x": 1.5},\n  "version": "0.1.0"\n}\n'
    )


@pytest.mark.parametrize(
    "change, equivalent",
    [
        pytest.param({"im": 4.0 * (1 + 2e-16)}, True, id="zero-last-bit"),
        pytest.param({"loop_im": 2.0 * (1 + 1e-13)}, True, id="loop-zero-1e-13"),
        pytest.param({"im": 4.0 * (1 + 1e-11)}, False, id="zero-1e-11"),
    ],
)
def test_zero_coordinates_may_move_by_the_tolerance(change, equivalent):
    verdict = equivalence.compare(run(), run(**change))
    assert verdict["zeros_moved"] == 1 and not verdict["field_differences"]
    assert verdict["equivalent"] == equivalent


@pytest.mark.parametrize(
    "change, difference",
    [
        ({"refined": False}, "job: results.0.zeros.0.refined"),
        ({"rel_error": 1e-17}, "job: loops.0.rel_error"),
    ],
)
def test_any_other_field_must_be_equal(change, difference):
    verdict = equivalence.compare(run(), run(**change))
    assert verdict["field_differences"] == [difference] and not verdict["equivalent"]


def test_exit_codes_must_be_equal():
    verdict = equivalence.compare(run(), run(code=3))
    assert verdict["exit_code_differences"] == ["job: exit 0 -> 3"]
    assert not verdict["equivalent"]


@pytest.mark.parametrize(
    "refusal, difference",
    [
        ((3, "error: step budget of 1000 points\n"), "job: stderr"),
        ((1, "error: step budget of 100 points\n"), "job: exit 3 -> 1"),
        ((3, "error: step budget of 100 points"), "job: stderr"),
    ],
)
def test_a_refusal_job_must_keep_its_exit_code_and_stderr(refusal, difference):
    parent, change = run(), run()
    parent["refusals"] = {"job": (3, "error: step budget of 100 points\n")}
    change["refusals"] = {"job": refusal}
    verdict = equivalence.compare(parent, change)
    assert verdict["refusal_jobs"] == 1 and not verdict["equivalent"]
    assert [d.split(" '")[0] for d in verdict["refusal_differences"]] == [difference]
    assert equivalence.compare(parent, parent)["equivalent"]


def test_the_refusal_corpus_exits_as_it_says(monkeypatch):
    # each job runs under this tree's package and ends with its stated code,
    # an error message for a refusal and nothing for a success
    monkeypatch.setattr(sys, "path", list(sys.path))
    src = str(Path(cli.__file__).resolve().parents[1])
    corpus = json.loads(equivalence.REFUSALS.read_text(encoding="utf-8"))
    runs = equivalence.run_refusals(src)
    assert list(runs) == [job["name"] for job in corpus]
    for job in corpus:
        code, err = runs[job["name"]]
        assert code == job["code"]
        assert err.startswith("error: ") if code else err == ""


def test_a_stacked_call_counts_the_term_points_of_every_sum_it_holds(monkeypatch):
    # five sums of two and three terms: their ratio fits make one kernel
    # call per term count, and count what five calls of one sum counted
    polys = [
        ExpPoly(((0.0, 1), (1.0, 2))),
        ExpPoly(((0.5, 1), (1.0, 1), (2.0, 3))),
        ExpPoly(((-1.0, 2), (3.0, 1))),
        ExpPoly(((0.0, 1), (0.25, 1), (4.0, 1))),
        ExpPoly(((1.0, 3), (2.0, 1))),
    ]
    samples = exppoly._RATIO_SAMPLES.size
    counted = []
    real = exppoly._parts

    def spy(f, ps, *args):
        counted.append(equivalence.term_points(f, ps))
        return real(f, ps, *args)

    monkeypatch.setattr(exppoly, "_parts", spy)
    exppoly._ratio_fits(polys, [(0, 1), (2, 3), (4, 0)])
    assert len(counted) == 2
    assert sum(counted) == sum(len(f.terms) for f in polys) * samples == 192


def test_kernel_work_that_moves_between_callers_is_the_same_per_workload():
    parent = {"a/_log": [3, 48], "a/_newton_polish": [2, 4], "b/_log": [1, 16]}
    change = {"a/_ratio_fits": [3, 48], "a/_newton_polish": [2, 4], "b/_ratio_fits": [1, 16]}
    work = equivalence.kernel_work(parent, change)
    assert work["parent"] == parent and work["change"] == change
    assert work["per_workload"]["change"] == {"a": [5, 52], "b": [1, 16]}
    assert work["same_per_workload"]
    # one call more, or one term-point more, in a workload is not the same work
    for extra in ({"b/_evaluate": [1, 0]}, {"a/_evaluate": [0, 1]}):
        assert not equivalence.kernel_work(parent, {**change, **extra})["same_per_workload"]


def test_src_lines_counts_the_lines_of_every_python_file_of_a_tree(tmp_path):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text("x = 1\n\ny = 2\n")
    (package / "sub" / "mod.py").write_text("z = 3")  # no final newline
    (package / "notes.txt").write_text("not source\n")
    assert equivalence.src_lines(str(tmp_path)) == 4


def test_code_lines_skip_blank_lines_comments_and_docstrings(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""Module docstring,\n\non three lines."""\n'
        "\n"
        "# a comment\n"
        "def f(x):  # a trailing comment stays code\n"
        '    """One line."""\n'
        "    text = '''a string\n"
        "    that is code'''\n"
        "        # an indented comment\n"
        "    return text\n"
        "\n"
        "class C:\n"
        '    """Class docstring."""\n'
        "    y = '#'\n"
    )
    assert equivalence.src_lines(str(tmp_path)) == 15
    # def, both lines of the assigned string, return, class and y
    assert equivalence.code_lines(str(tmp_path)) == 6


def test_stage_calls_are_counted_under_the_running_job():
    # a stage's calls go to the workload and command of the job running
    # them; a stage that a tree lacks is not counted, and each call still
    # returns what the stage returns
    module = types.SimpleNamespace(_contour_sums=lambda boxes: [len(boxes)])
    calls = collections.Counter()
    key = ["zeros-monodromy", "zeros"]
    equivalence.count_stages(module, calls, lambda: key)
    assert module._contour_sums([1, 2]) == [2]
    module._contour_sums([])
    key[1] = "analyze"
    module._contour_sums([3])
    assert calls == {
        ("zeros-monodromy", "zeros", "_contour_sums"): 2,
        ("zeros-monodromy", "analyze", "_contour_sums"): 1,
    }
    assert not hasattr(module, "_hankel_solve")


def test_entry_calls_are_counted_under_every_name_that_binds_them():
    # a module that binds find_zeros of its own is counted as well, its
    # other names are left alone, and each call returns what it returns
    def find_zeros(f):
        return f + 1

    def count_zeros(f):
        return 2 * f

    owner = types.SimpleNamespace(find_zeros=find_zeros, count_zeros=count_zeros)
    user = types.SimpleNamespace(find_zeros=find_zeros, other=len)
    calls = collections.Counter()
    key = ["zeros-monodromy", "zeros"]
    equivalence.count_entries(owner, [owner, user], calls, lambda: key)
    assert user.find_zeros(1) == 2 and owner.find_zeros(2) == 3
    assert owner.count_zeros(3) == 6 and user.other is len
    assert calls == {
        ("zeros-monodromy", "zeros", "find_zeros"): 2,
        ("zeros-monodromy", "zeros", "count_zeros"): 1,
    }


def test_entry_errors_are_counted_by_type_and_still_raised():
    # each error an entry raises is counted under the running job, the
    # entry and its type, and raised on; a call that returns adds none
    def count_zeros(f):
        if f < 0:
            raise QuadratureError("refused")
        if f == 0:
            raise BoundaryProximityError("near a zero")
        return f

    owner = types.SimpleNamespace(find_zeros=abs, count_zeros=count_zeros)
    calls, raised = collections.Counter(), collections.Counter()
    key = ["zeros-monodromy", "zeros"]
    equivalence.count_entries(owner, [owner], calls, lambda: key, raised)
    with pytest.raises(QuadratureError):
        owner.count_zeros(-1)
    for _ in range(2):
        with pytest.raises(BoundaryProximityError):
            owner.count_zeros(0)
    assert owner.count_zeros(2) == 2
    key[1] = "analyze"
    with pytest.raises(QuadratureError, match="refused"):
        owner.count_zeros(-3)
    assert owner.find_zeros(-4) == 4
    assert raised == {
        ("zeros-monodromy", "zeros", "count_zeros", "QuadratureError"): 1,
        ("zeros-monodromy", "zeros", "count_zeros", "BoundaryProximityError"): 2,
        ("zeros-monodromy", "analyze", "count_zeros", "QuadratureError"): 1,
    }
    assert calls[("zeros-monodromy", "zeros", "count_zeros")] == 4


def test_entry_errors_name_the_refusal_of_an_inflated_window(monkeypatch):
    # 1 + 2^p has a zero at Im p = pi / ln 2, on this window's bottom edge:
    # the first count is refused near a zero, and the inflated one counts
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "pnormcert"]
    for module in modules:
        for name in equivalence.ENTRIES:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, getattr(module, name))
    calls, raised = collections.Counter(), collections.Counter()
    equivalence.count_entries(exppoly, modules, calls, lambda: ("zeros",), raised)
    rect = exppoly.Rectangle(-1.0, 1.0, math.pi / math.log(2.0), 20.0)
    found = exppoly.find_zeros(exppoly.from_vector(RealVector((1.0, 2.0))), rect)
    assert found.window == rect.inflate(exppoly._INFLATION_FACTOR)
    assert calls == {("zeros", "find_zeros"): 1, ("zeros", "count_zeros"): 2}
    assert raised == {("zeros", "count_zeros", "BoundaryProximityError"): 1}


def test_count_entries_sees_the_calls_of_a_zeros_job(monkeypatch, tmp_path):
    # cli calls its own find_zeros once per vector, and each search calls
    # exppoly's count_zeros for its window
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "pnormcert"]
    for module in modules:
        for name in equivalence.ENTRIES:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, getattr(module, name))
    calls = collections.Counter()
    equivalence.count_entries(exppoly, modules, calls, lambda: ("zeros",))
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"command": "zeros", "vectors": [[1, 2], [1, 40], [3]]}))
    assert cli.main(["zeros", "--input", str(job), "--output", str(tmp_path / "cert.json")]) == 0
    assert calls["zeros", "find_zeros"] == 3
    assert calls["zeros", "count_zeros"] >= calls["zeros", "find_zeros"]


def test_the_boxes_of_each_count_round_are_counted_with_the_empty_and_refused():
    # each _count_adaptive call adds its boxes, its counts of 0 and its
    # refusals under the workload and command of the job running it, and
    # returns what the call returns
    rounds = [[2, 0, 1], [QuadratureError("refused"), 0], [3]]
    module = types.SimpleNamespace(_count_adaptive=lambda edges, boxes: rounds[boxes])
    boxes = collections.defaultdict(lambda: [0, 0, 0])
    key = ["zeros-monodromy", "zeros"]
    equivalence.count_boxes(module, boxes, lambda: tuple(key))
    assert module._count_adaptive(None, 0) == [2, 0, 1]
    module._count_adaptive(None, 1)
    key[1] = "monodromy"
    module._count_adaptive(None, 2)
    assert boxes == {
        ("zeros-monodromy", "zeros"): [5, 2, 1],
        ("zeros-monodromy", "monodromy"): [1, 0, 0],
    }


def test_count_boxes_reads_the_pieces_of_a_real_search(monkeypatch):
    # 1 + 40^p has 23 zeros over the default window, cut into 8 pieces in
    # one count round, none empty or refused
    monkeypatch.setattr(exppoly, "_count_adaptive", exppoly._count_adaptive)
    boxes = collections.defaultdict(lambda: [0, 0, 0])
    equivalence.count_boxes(exppoly, boxes, lambda: "zeros")
    exppoly.find_zeros(exppoly.from_vector(RealVector((1.0, 40.0))), exppoly.DEFAULT_WINDOW)
    assert boxes == {"zeros": [8, 0, 0]}
