import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

from pnormcert import (
    ClearanceError,
    InvalidInputError,
    MonodromyMismatchError,
    QuadratureError,
    Rectangle,
    SampleGrid,
    SingularEvaluationError,
    cli,
    dependence,
    exppoly,
    vectors,
)
from pnormcert.cli import (
    DEFAULT_WINDOW,
    FIELDS,
    OPTIONS,
    emit_curves,
    main,
    parse_jobspec,
    run,
)
from pnormcert.vectors import RealVector

README = Path(__file__).resolve().parent.parent / "README.md"

# One value per settable job field, each different from the field's default.
NON_DEFAULT = {
    "interval": [2, 5],
    "window": {"re": [-1, 1], "im": [1, 5]},
    "base_p": [2.5, 3.0],
    "radius": 0.5,
    "target_index": 1,
    "include_zero_evidence": True,
}


def job_text(**fields) -> str:
    return json.dumps(fields)


def reads(key: str) -> tuple[str, ...]:
    """The commands that read the job field ``key``."""
    return FIELDS[key].metadata["commands"]


def with_setting(doc: dict, key: str, value) -> dict:
    """``doc`` with the field ``key`` set to ``value``: top-level, or under
    "options" beside the options ``doc`` sets."""
    if key not in OPTIONS:
        return {**doc, key: value}
    return {**doc, "options": {**doc.get("options", {}), key: value}}


# A small job of each command that runs cleanly with every option it reads
# set to its NON_DEFAULT value: e^p + 1 has two zeros, i*pi and 3i*pi, in
# the window, so target_index 1 exists.  The analyze job has zero evidence
# on, so it reads the window too.
RUNNABLE = {
    "zeros": dict(vectors=[[math.e, 1]], window={"im": [1, 10]}),
    "monodromy": dict(vectors=[[math.e, 1]], window={"im": [1, 10]}),
    "norms": dict(vectors=[[1, 0], [0, 1]], interval=[1, "inf"]),
    "equiv": dict(vectors=[[1, 0], [0, 1]]),
    "analyze": dict(
        vectors=[[1, 0], [0, 1]],
        interval=[1, "inf"],
        options={"include_zero_evidence": True},
    ),
}


def test_parse_fills_defaults():
    job = parse_jobspec(job_text(command="analyze", vectors=[[1, 0], [0, 1], [1, 1]]))
    assert job.command == "analyze"
    assert [v.coords for v in job.vectors] == [(1, 0), (0, 1), (1, 1)]
    assert job.interval == (1.0, 4.0)
    assert job.window == DEFAULT_WINDOW
    assert job.base_ps == (2.0,)


def test_parse_rejects_zero_vector_with_index():
    with pytest.raises(InvalidInputError) as err:
        parse_jobspec(job_text(command="analyze", vectors=[[1, 2], [0, 0]]))
    msg = str(err.value)
    assert "vectors[1]" in msg and "zero" in msg


def test_parse_zeros_job_with_window():
    job = parse_jobspec(
        '{"command":"zeros","vectors":[[2.718281828,1]],"window":{"im":[1,10]}}'
    )
    assert job.command == "zeros"
    assert job.window == Rectangle(-1.0, 1.0, 1.0, 10.0)


def test_parse_reports_json_location():
    with pytest.raises(InvalidInputError) as err:
        parse_jobspec('{"command": "zeros",\n  "vectors": [[1, 2],]\n}')
    assert "line 2" in str(err.value)


def test_parse_rejects_unknown_fields_by_section():
    with pytest.raises(InvalidInputError) as err:
        parse_jobspec(job_text(command="zeros", vectors=[[1]], extra=1))
    assert "job" in str(err.value) and "extra" in str(err.value)
    with pytest.raises(InvalidInputError) as err:
        parse_jobspec(job_text(command="zeros", vectors=[[1]], window={"rw": [0, 1]}))
    assert "window" in str(err.value) and "rw" in str(err.value)
    with pytest.raises(InvalidInputError) as err:
        parse_jobspec(job_text(command="zeros", vectors=[[1]], options={"grid": 3}))
    assert "options" in str(err.value) and "grid" in str(err.value)
    # read by nothing, fixed constants, or paths that only the command line
    # sets: not options
    for key in (
        "match_tol",
        "quad_tol",
        "merge_tol",
        "equiv_tol",
        "grid_count",
        "output",
        "curves",
    ):
        with pytest.raises(InvalidInputError) as err:
            parse_jobspec(job_text(command="norms", vectors=[[1]], options={key: "x"}))
        assert str(err.value) == f"options: unknown field(s) {key}"


def test_parse_command_and_schema_checks():
    # only the JSON integer 1, not a number or boolean equal to it
    for schema in (2, True, 1.0):
        with pytest.raises(InvalidInputError, match=r"^schema: "):
            parse_jobspec(job_text(schema=schema, command="zeros", vectors=[[1]]))
    with pytest.raises(InvalidInputError):
        parse_jobspec(job_text(command="fly", vectors=[[1]]))
    with pytest.raises(InvalidInputError):
        parse_jobspec(job_text(vectors=[[1]]))
    with pytest.raises(InvalidInputError) as err:
        parse_jobspec(job_text(command="zeros", vectors=[[1]]), command="norms")
    assert "zeros" in str(err.value) and "norms" in str(err.value)
    # CLI command fills in when the file omits it
    job = parse_jobspec(job_text(vectors=[[1]]), command="norms")
    assert job.command == "norms"


def test_parse_accepts_numbers_as_strings():
    job = parse_jobspec(
        job_text(
            command="monodromy",
            vectors=[["3", "4.0"]],
            window={"im": ["1", "1e1"]},
            options={"radius": "0.5"},
        )
    )
    assert job.vectors[0].coords == (3.0, 4.0)
    assert job.window == Rectangle(-1.0, 1.0, 1.0, 10.0)
    assert job.radius == 0.5
    job = parse_jobspec(job_text(command="norms", vectors=[[1]], interval=["1", "inf"]))
    assert job.interval == (1.0, math.inf)


def test_parse_interval_validation():
    with pytest.raises(InvalidInputError):
        parse_jobspec(job_text(command="norms", vectors=[[1]], interval=[2, 2]))
    with pytest.raises(InvalidInputError):
        parse_jobspec(job_text(command="norms", vectors=[[1]], interval=[0.5, 3]))
    with pytest.raises(InvalidInputError):
        parse_jobspec(job_text(command="norms", vectors=[[1]], interval=[1]))
    with pytest.raises(InvalidInputError, match=r"^interval\[1\]: integer too large"):
        parse_jobspec(job_text(command="norms", vectors=[[1]], interval=[1, 10**400 - 1]))


@pytest.mark.parametrize(
    "command, interval",
    [
        ("norms", [1e300, "inf"]),
        ("analyze", [1, 1.0000000000000002]),
        ("analyze", [1.7976931348623157e308, "inf"]),
    ],
)
def test_main_names_an_interval_the_grid_cannot_sample(tmp_path, capsys, command, interval):
    job_file = tmp_path / "job.json"
    job_file.write_text(job_text(command=command, vectors=[[1, 2]], interval=interval))
    assert main([command, "--input", str(job_file)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: interval: ") and not captured.out


@pytest.mark.parametrize(
    "interval", [[1, 1.0000000000000002], [1, 1.00000000000001], [1e300, 1.7e308]]
)
@pytest.mark.parametrize("command", ["analyze", "norms"])
def test_main_refuses_an_interval_too_narrow_for_its_samples(tmp_path, capsys, command, interval):
    # the 16 Chebyshev samples of these intervals round onto fewer floats;
    # the last is sampled on [a, a + 39] only, and 1e300 + 39 rounds to 1e300
    job_file = tmp_path / "job.json"
    job_file.write_text(job_text(command=command, vectors=[[1, 2]], interval=interval))
    assert main([command, "--input", str(job_file)]) == 1
    span = {
        1.0000000000000002: "[1.0, 1.0000000000000002]",
        1.00000000000001: "[1.0, 1.00000000000001]",
        1.7e308: "[1e+300, 1.7e+308] sampled on [1e+300, 1e+300]",
    }[interval[1]]
    assert capsys.readouterr().err == (
        f"error: interval: {span} is too narrow for 16 distinct samples\n"
    )


def test_parse_option_validation():
    for key, value in (
        ("radius", 0),
        ("base_p", []),
        ("base_p", "inf"),
        ("target_index", -1),
        ("include_zero_evidence", "yes"),
    ):
        # a command that reads the key, so the value's rule is what rejects it
        base = dict(command=reads(key)[-1], vectors=[[1]])
        with pytest.raises(InvalidInputError) as err:
            parse_jobspec(job_text(**base, options={key: value}))
        assert f"options.{key}" in str(err.value)
        assert "not read" not in str(err.value)


@pytest.mark.parametrize(
    "key, command",
    [(key, cmd) for key in sorted(FIELDS) for cmd in cli.COMMANDS if cmd not in reads(key)],
)
def test_parse_rejects_options_the_command_does_not_read(key, command):
    with pytest.raises(InvalidInputError) as err:
        parse_jobspec(
            job_text(**with_setting(dict(command=command, vectors=[[1]]), key, NON_DEFAULT[key]))
        )
    where = f"options.{key}" if key in OPTIONS else key
    assert str(err.value) == f"{where}: not read by {command}"


def test_run_analyze_exit_and_rank():
    job = parse_jobspec(job_text(command="analyze", vectors=[[1, 0], [0, 1], [1, 1]]))
    cert, code = run(job)
    assert code == 0
    assert cert.payload["classification"] == "consistent-with-theorem"
    assert cert.payload["numeric_rank"] == 2
    assert len(cert.payload["null_basis"]) == 1
    assert cert.schema == 1 and cert.command == "analyze"


def test_run_zeros_closed_form_payload():
    job = parse_jobspec(
        '{"command":"zeros","vectors":[[2.718281828,1]],"window":{"im":[1,10]}}'
    )
    cert, code = run(job)
    assert code == 0
    (result,) = cert.payload["results"]
    assert result["total"] == 2
    got = sorted((z["im"], z["multiplicity"]) for z in result["zeros"])
    assert got[0][1] == 1 and got[1][1] == 1
    # vector is only approximately (e, 1), so the zeros sit near odd pi i
    assert abs(got[0][0] - math.pi) <= 1e-6
    assert abs(got[1][0] - 3 * math.pi) <= 1e-6


def test_run_equiv_payload():
    job = parse_jobspec(job_text(command="equiv", vectors=[[0, 3, -4], [8, 6]]))
    cert, code = run(job)
    assert code == 0
    (pair,) = cert.payload["pairs"]
    assert pair["equivalent"] is True
    assert pair["ratio"] == pytest.approx(0.5, rel=1e-12)
    assert cert.payload["partition"]["classes"] == [[0, 1]]


# [1, 0.5] matches both other vectors within 1e-9, and they do not match
# each other: one class would hold a pair the rule calls inequivalent
NOT_TRANSITIVE = [[1, 0.5], [1, 0.5000000004], [1, 0.4999999996]]


@pytest.mark.parametrize("command", ["equiv", "analyze"])
def test_a_family_the_equivalence_rule_cannot_split_exits_3(tmp_path, capsys, command):
    job_file = tmp_path / "job.json"
    job_file.write_text(job_text(command=command, vectors=NOT_TRANSITIVE))
    assert main([command, "--input", str(job_file)]) == 3
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == (
        "error: equivalence within relative 1e-09 is not transitive on these vectors: "
        "vectors[1] and vectors[2] fall in one class but do not match\n"
    )


def test_equiv_canonicalizes_each_vector_once(monkeypatch):
    # the pair list reads the partition: no pair canonicalizes its vectors again
    seen = []
    real = vectors.canonicalize

    def spy(v):
        seen.append(v)
        return real(v)

    monkeypatch.setattr(vectors, "canonicalize", spy)
    doc = [[0, 3, -4], [8, 6], [1, 1], [2, 2, 0], [5], [-0.5, 0.5]]
    cert, code = run(parse_jobspec(job_text(command="equiv", vectors=doc)))
    assert code == 0 and len(cert.payload["pairs"]) == 15
    assert seen == [RealVector(tuple(map(float, v))) for v in doc]
    flagged = [(p["i"], p["j"], p["ratio"]) for p in cert.payload["pairs"] if p["equivalent"]]
    assert flagged == [(0, 1, 0.5), (2, 3, 0.5), (2, 5, 2.0), (3, 5, 4.0)]


def test_run_norms_payload():
    job = parse_jobspec(job_text(command="norms", vectors=[[1, 1]], interval=[1, 2]))
    cert, code = run(job)
    assert code == 0
    points = cert.payload["grid"]["points"]
    assert len(points) == 16 and points[0] == 1.0 and points[-1] == 2.0
    col = [row[0] for row in cert.payload["norms"]]
    assert col[0] == pytest.approx(2.0, rel=1e-15)
    assert col[-1] == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_norms_samples_four_points_per_vector_by_default():
    # the grid rule of analyze: max(16, 4n), so 10 vectors take 40 samples,
    # twice the 2n below which build_matrix warns
    vectors = [[1, k] for k in range(1, 11)]
    job = parse_jobspec(job_text(command="norms", vectors=vectors))
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        cert, code = run(job)
    assert code == 0
    assert len(cert.payload["grid"]["points"]) == 40
    assert len(cert.payload["norms"]) == 40


def test_run_monodromy_payload():
    job = parse_jobspec(
        job_text(
            command="monodromy",
            vectors=[[math.e, 1]],
            window={"im": [1, 10]},
            options={"base_p": [2, 2.7], "radius": 0.5},
        )
    )
    cert, code = run(job)
    assert code == 0
    (result,) = cert.payload["results"]
    assert len(result["loops"]) == 4  # two zeros x two base points
    for loop in result["loops"]:
        assert loop["rel_error"] <= 1e-6
        assert "zero_formula_factor" not in loop
        assert loop["radius"] == 0.5


def test_monodromy_loops_around_triple_zeros():
    # (1 + 3^p)^3 has seven triple zeros in the default window; each loop
    # must measure the factor exp(2 pi i 3 / base_p)
    doc = {"vectors": [[1, 3, 3, 3, 9, 9, 9, 27]], "options": {"base_p": [2, 3.5]}}
    cert, code = run(parse_jobspec(job_text(command="monodromy", **doc)))
    assert code == 0
    loops = cert.payload["results"][0]["loops"]
    assert len(loops) == 14
    for loop in loops:
        assert loop["multiplicity"] == 3
        assert loop["rel_error"] <= 1e-6


def test_run_monodromy_target_index_bounds():
    job = parse_jobspec(
        job_text(
            command="monodromy",
            vectors=[[math.e, 1]],
            window={"im": [1, 10]},
            options={"target_index": 5},
        )
    )
    with pytest.raises(InvalidInputError):
        run(job)


def test_run_refuses_an_unknown_command():
    with pytest.raises(InvalidInputError, match="unknown command 'fly'"):
        run(cli.JobSpec("fly", (RealVector((1.0,)),)))


def test_certificate_json_shape():
    job = parse_jobspec(job_text(command="equiv", vectors=[[1, 2], [2, 4]]))
    cert, _ = run(job)
    doc = json.loads(cert.to_json())
    assert sorted(doc) == [
        "command",
        "input",
        "payload",
        "schema",
        "timing_ms",
        "version",
    ]


def test_payload_deterministic_across_runs_and_threads():
    text = job_text(
        command="monodromy",
        vectors=[[math.e, 1]],
        window={"im": [1, 10]},
        options={"base_p": [2, 2.7], "radius": 0.5},
    )

    def payload(threads):
        cert, _ = run(parse_jobspec(text), threads)
        return json.dumps(cert.payload, sort_keys=True)

    assert payload(1) == payload(1)
    assert payload(1) == payload(4)

    zeros_text = job_text(
        command="zeros", vectors=[[math.e, 1], [math.e**2, 1], [1, 2]]
    )

    def zeros_payload(threads):
        cert, _ = run(parse_jobspec(zeros_text), threads)
        return json.dumps(cert.payload, sort_keys=True)

    assert zeros_payload(1) == zeros_payload(4)


@pytest.mark.parametrize(
    "doc",
    [
        dict(command="zeros", vectors=[[math.e, 1], [math.e**2, 1], [1, 2]]),
        dict(
            command="monodromy",
            vectors=[[math.e, 1]],
            window={"im": [1, 10]},
            options={"base_p": [2, 2.7], "radius": 0.5},
        ),
    ],
    ids=["zeros", "monodromy"],
)
def test_run_starts_no_thread(monkeypatch, doc):
    started = []
    real = threading.Thread.start

    def spy(thread):
        started.append(thread)
        real(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    run(parse_jobspec(job_text(**doc)), 4)
    assert started == []


def test_importing_the_cli_loads_no_thread_pool():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, pnormcert.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "False\n"


def test_input_echo_round_trips():
    job = parse_jobspec(
        job_text(
            command="analyze",
            vectors=[[1, 0], [0, 1]],
            interval=[1, "inf"],
            options={"include_zero_evidence": False},
        )
    )
    cert, _ = run(job)
    assert "window" not in cert.input  # read only with zero evidence
    again = parse_jobspec(json.dumps(cert.input))
    assert again == job


@pytest.mark.parametrize("options", [{}, {"include_zero_evidence": False}])
def test_analyze_refuses_a_window_without_zero_evidence(tmp_path, capsys, options):
    job_file = tmp_path / "job.json"
    doc = dict(vectors=[[1, 0], [0, 1], [1, 2]], window={"im": [2, 3]}, options=options)
    job_file.write_text(job_text(command="analyze", **doc))
    assert main(["analyze", "--input", str(job_file)]) == 1
    err = capsys.readouterr().err
    assert err == "error: window: analyze reads it only with options.include_zero_evidence true\n"


@pytest.mark.parametrize("key", sorted(FIELDS))
def test_input_echo_round_trips_each_option(key):
    opt = FIELDS[key]
    assert reads(key)
    for command in reads(key):
        doc = with_setting(RUNNABLE[command], key, NON_DEFAULT[key])
        job = parse_jobspec(job_text(command=command, **doc))
        assert getattr(job, opt.name) != opt.default
        cert, _ = run(job)
        echoed = cert.input["options"] if key in OPTIONS else cert.input
        assert echoed[key] == NON_DEFAULT[key], command
        # the echo holds exactly the fields the command reads
        assert sorted(cert.input["options"]) == sorted(
            k for k in OPTIONS if command in reads(k)
        ), command
        read_top = [k for k in ("interval", "window") if command in reads(k)]
        assert sorted(cert.input) == sorted(
            ["schema", "command", "vectors", "options", *read_top]
        ), command
        assert parse_jobspec(json.dumps(cert.input)) == job, command


# For each (field, command) pair a job can set: a job of that command, and a
# value of the field, that changes the job's exit code or payload.
_E3 = [math.e**3, 1]  # e^(3p) + 1: zeros at odd multiples of i pi/3
WITNESSES = {
    ("interval", "norms"): (dict(vectors=[[1, 2]]), [2, 5]),
    ("interval", "analyze"): (dict(vectors=[[1, 0], [0, 1]]), [2, 5]),
    ("window", "zeros"): (RUNNABLE["zeros"], {"im": [1, 5]}),
    ("window", "monodromy"): (RUNNABLE["monodromy"], {"im": [1, 5]}),
    # both sums have one zero, i pi, in Im [2, 4]
    ("window", "analyze"): (
        dict(vectors=[[math.e, 1], _E3], options={"include_zero_evidence": True}),
        {"im": [2, 4]},
    ),
    ("base_p", "monodromy"): (RUNNABLE["monodromy"], [2.5, 3.0]),
    ("radius", "monodromy"): (RUNNABLE["monodromy"], 0.5),
    ("target_index", "monodromy"): (RUNNABLE["monodromy"], 1),
    ("include_zero_evidence", "analyze"): (dict(vectors=[[math.e, 1], _E3]), True),
}


@pytest.mark.parametrize(
    "key, command", [(key, cmd) for key in FIELDS for cmd in reads(key)]
)
def test_every_readable_field_takes_effect(tmp_path, capsys, key, command):
    doc, value = WITNESSES[key, command]

    def outcome(doc):
        job_file = tmp_path / "job.json"
        cert_file = tmp_path / "cert.json"
        cert_file.unlink(missing_ok=True)
        job_file.write_text(job_text(command=command, **doc))
        code = main([command, "--input", str(job_file), "--output", str(cert_file)])
        payload = json.loads(cert_file.read_text())["payload"] if cert_file.exists() else None
        return code, payload

    before = outcome(doc)
    after = outcome(with_setting(doc, key, value))
    assert before[0] != 1 and after[0] != 1, capsys.readouterr().err
    assert before != after


def test_job_schema_has_four_options():
    assert len(OPTIONS) == 4
    assert sorted(FIELDS) == sorted(NON_DEFAULT)
    assert sorted(FIELDS) == sorted(["interval", "window", *OPTIONS])
    # (field, command) pairs a job file can set
    assert sum(len(reads(key)) for key in FIELDS) == 9


def test_readme_options_table_matches_the_code():
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 4:
            # "Read by" names the commands in backquotes
            named = [w for w in re.findall(r"`([^`]+)`", cells[2]) if w in cli.COMMANDS]
            rows[cells[0].strip("`")] = (json.loads(cells[1].strip("`")), tuple(named))
    assert sorted(rows) == sorted(FIELDS)
    for key, (default, commands) in rows.items():
        assert sorted(commands) == sorted(reads(key)), key
        base = dict(command=commands[0], vectors=[[1]])
        default_job = parse_jobspec(job_text(**base))
        assert parse_jobspec(job_text(**with_setting(base, key, default))) == default_job, key


def test_emit_curves_known_rows(tmp_path):
    out = tmp_path / "curves.csv"
    emit_curves(
        [RealVector((1.0, 1.0))], SampleGrid(1, 2, (1.0, 2.0), False), str(out)
    )
    lines = out.read_text().splitlines()
    assert lines[0] == "p,norm_1"
    assert lines[1] == "1,2"
    assert lines[2] == "2,1.4142135623730951"

    with pytest.warns(UserWarning):  # single sample is below the rank-safe 2n
        emit_curves(
            [RealVector((3.0, 4.0))], SampleGrid(1, 4, (2.0,), False), str(out)
        )
    lines = out.read_text().splitlines()
    assert lines[1] == "2,5"

    with pytest.raises(InvalidInputError):
        emit_curves([], SampleGrid(1, 2, (1.0, 2.0), False), str(out))


def test_emit_curves_infinity_row(tmp_path):
    out = tmp_path / "curves.csv"
    emit_curves(
        [RealVector((3.0, 4.0))], SampleGrid(1, math.inf, (1.0, 2.0), True), str(out)
    )
    lines = out.read_text().splitlines()
    assert lines[-1] == "inf,4"


def test_main_end_to_end(tmp_path, capsys):
    job_file = tmp_path / "job.json"
    cert_file = tmp_path / "cert.json"
    curve_file = tmp_path / "curves.csv"
    job_file.write_text(
        job_text(command="analyze", vectors=[[1, 0], [0, 1], [1, 1]])
    )
    code = main(
        [
            "analyze",
            "--input",
            str(job_file),
            "--output",
            str(cert_file),
            "--curves",
            str(curve_file),
        ]
    )
    assert code == 0
    doc = json.loads(cert_file.read_text())
    assert doc["payload"]["numeric_rank"] == 2
    header = curve_file.read_text().splitlines()[0]
    assert header == "p,norm_1,norm_2,norm_3"

    # without --output the certificate goes to stdout
    code = main(["analyze", "--input", str(job_file)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "analyze"


def test_main_curves_use_the_certified_grid(tmp_path, monkeypatch):
    built = []
    real = dependence.build_matrix

    def spy(vs, grid):
        built.append(grid)
        return real(vs, grid)

    monkeypatch.setattr(dependence, "build_matrix", spy)
    monkeypatch.setattr(cli, "build_matrix", spy)
    # six vectors: analyze samples max(16, 4 * 6) = 24 points
    job_file = tmp_path / "job.json"
    cert_file = tmp_path / "cert.json"
    curve_file = tmp_path / "curves.csv"
    vectors = [[1, 0], [0, 1], [1, 1], [1, 2], [2, 1], [3, 1]]
    job_file.write_text(job_text(command="analyze", vectors=vectors, interval=[1, "inf"]))
    argv = ["analyze", "--input", str(job_file), "--output", str(cert_file)]
    assert main(argv + ["--curves", str(curve_file)]) == 0
    grid = json.loads(cert_file.read_text())["payload"]["grid"]
    assert len(grid["points"]) == 23 and grid["include_infinity"]
    labels = [line.split(",")[0] for line in curve_file.read_text().splitlines()[1:]]
    assert labels[:-1] == ["%.17g" % p for p in grid["points"]]
    assert labels[-1] == "inf"
    # the CSV reuses the certified matrix: built once, and byte for byte
    # what emit_curves writes for the same grid
    assert len(built) == 1
    again = tmp_path / "again.csv"
    emit_curves([RealVector(tuple(v)) for v in vectors], built[0], str(again))
    assert curve_file.read_bytes() == again.read_bytes()


@pytest.mark.parametrize("command", ["zeros", "monodromy", "equiv"])
def test_main_refuses_curves_without_a_norm_table(tmp_path, capsys, monkeypatch, command):
    def no_run(*args):
        raise AssertionError("the job ran")

    monkeypatch.setattr(cli, "run", no_run)
    job_file = tmp_path / "job.json"
    curve_file = tmp_path / "curves.csv"
    job_file.write_text(job_text(command=command, **RUNNABLE[command]))
    argv = [command, "--input", str(job_file), "--curves", str(curve_file)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --curves: {command} certifies no norm table\n"
    assert not captured.out and not curve_file.exists()


def test_main_refuses_curves_onto_the_certificate(tmp_path, capsys, monkeypatch):
    def no_run(*args):
        raise AssertionError("the job ran")

    monkeypatch.setattr(cli, "run", no_run)
    monkeypatch.chdir(tmp_path)
    Path("n.json").write_text(job_text(command="norms", **RUNNABLE["norms"]))
    argv = ["norms", "--input", "n.json", "--output", "same.out"]
    assert main(argv + ["--curves", str(tmp_path / "same.out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --curves: same file as --output\n"
    assert not captured.out
    assert [p.name for p in tmp_path.iterdir()] == ["n.json"]


def test_main_error_paths(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["zeros", "--input", str(missing)]) == 1
    assert "cannot read" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text(job_text(command="zeros", vectors=[[0, 0]]))
    assert main(["zeros", "--input", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "vectors[0]" in err

    good = tmp_path / "good.json"
    good.write_text(job_text(command="zeros", vectors=[[1, 2]]))
    assert main(["zeros", "--input", str(good), "--threads", "0"]) == 1
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        (job_text(command="zeros", vectors=[["nan", 1]]), "vectors[0][0]: nan is not allowed"),
        (
            job_text(command="zeros", vectors=[[1, 10**400 - 1]]),
            "vectors[0][1]: integer too large for a float",
        ),
        (
            job_text(command="zeros", vectors=[[1, 2]], window={"re": [1, -1]}),
            "window.re: need finite lo < hi",
        ),
        (
            json.dumps([{"command": "zeros", "vectors": [[1, 2]]}]),
            "job file must contain a JSON object",
        ),
        (job_text(command="zeros"), "vectors: required field is missing"),
        (job_text(command="zeros", vectors=[]), "vectors: expected a non-empty list"),
        (job_text(command="zeros", vectors=[[1, 2]], options=[]), "options: expected an object"),
        (
            # past CPython's 4,300-digit limit json.loads raises a plain ValueError
            '{"command": "zeros", "vectors": [[1, ' + "9" * 5000 + "]]}",
            "malformed JSON: an integer literal has over 4300 digits",
        ),
        (
            # past the recursion limit json.loads raises a RecursionError
            '{"command": "zeros", "vectors": ' + "[" * 100_000 + "]" * 100_000 + "}",
            "malformed JSON: nested too deeply",
        ),
    ],
    ids=[
        "nan-coordinate",
        "huge-integer-coordinate",
        "reversed-window",
        "list-job",
        "no-vectors",
        "empty-vectors",
        "list-options",
        "overlong-integer-literal",
        "deep-nesting",
    ],
)
def test_main_refuses_a_malformed_job_file(tmp_path, capsys, text, message):
    job_file = tmp_path / "job.json"
    job_file.write_text(text)
    assert main(["zeros", "--input", str(job_file)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and not captured.out


def test_main_refuses_a_job_file_that_is_not_utf8(tmp_path, capsys):
    job_file = tmp_path / "job.json"
    job_file.write_bytes(job_text(command="zeros", vectors=[[1, 2]]).encode() + b"\xff")
    assert main(["zeros", "--input", str(job_file)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot read {job_file}: 'utf-8' codec can't decode")
    assert captured.err.count("\n") == 1 and not captured.out


def test_main_reports_an_unwritable_output(tmp_path, capsys):
    job_file = tmp_path / "job.json"
    job_file.write_text(job_text(command="equiv", **RUNNABLE["equiv"]))
    target = tmp_path / "missing-dir" / "x.cert"
    assert main(["equiv", "--input", str(job_file), "--output", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1 and not captured.out
    assert [p.name for p in tmp_path.iterdir()] == ["job.json"]


def test_main_leaves_no_certificate_when_the_curves_fail(tmp_path, capsys):
    job_file = tmp_path / "job.json"
    job_file.write_text(job_text(command="norms", **RUNNABLE["norms"]))
    cert_file = tmp_path / "n.cert"
    curves = tmp_path / "missing-dir" / "c.csv"
    argv = ["norms", "--input", str(job_file), "--curves", str(curves)]
    assert main(argv + ["--output", str(cert_file)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {curves}: ")
    assert not captured.out
    assert [p.name for p in tmp_path.iterdir()] == ["job.json"]
    # without --output the certificate is not printed either
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {curves}: ")
    assert not captured.out


def test_monodromy_job_takes_few_kernel_calls(kernel_calls):
    # two zeros, two base points: four loops, continued together in
    # refinement rounds of one kernel call each, after one call that tests
    # both zeros: 6 calls for the zero search, 1 for the zeros and 2 rounds
    # (18 when each loop ran alone, 601 when every step took its own call)
    doc = {**RUNNABLE["monodromy"], "options": {"base_p": [2, 3.5]}}
    cert, code = run(parse_jobspec(job_text(command="monodromy", **doc)))
    assert code == 0 and len(cert.payload["results"][0]["loops"]) == 4
    assert len(kernel_calls) <= 9


def _classified(classification):
    """A stand-in for cli.analyze whose report carries ``classification``."""
    real = dependence.analyze

    def fake(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), classification=classification)

    return fake


def _raising(error):
    def fake(*args, **kwargs):
        raise error("planted failure")

    return fake


@pytest.mark.parametrize(
    "command, vectors, attr, stand_in, code",
    [
        ("analyze", [[1, 0], [0, 1]], None, None, 0),
        ("analyze", [[1, 0], [0, 1]], "analyze", _classified(dependence.UNEXPECTED), 2),
        ("analyze", [[1, 0], [0, 1]], "analyze", _classified(dependence.ILL_CONDITIONED), 3),
        ("monodromy", [[math.e, 1]], "loop_monodromies", _raising(MonodromyMismatchError), 2),
        ("monodromy", [[math.e, 1]], "loop_monodromies", _raising(ClearanceError), 1),
        ("zeros", [[math.e, 1]], "find_zeros", _raising(QuadratureError), 3),
        ("zeros", [[math.e, 1]], "find_zeros", _raising(SingularEvaluationError), 3),
        # the ratio of the two scales leaves the float64 range
        ("equiv", [[1e300], [1e-300]], None, None, 3),
        ("equiv", [[0, 0]], None, None, 1),
    ],
    ids=[
        "consistent",
        "unexpected-dependence",
        "ill-conditioned",
        "monodromy-mismatch",
        "clearance",
        "quadrature",
        "singular-evaluation",
        "scale-overflow",
        "invalid-input",
    ],
)
def test_main_exit_codes(tmp_path, capsys, monkeypatch, command, vectors, attr, stand_in, code):
    if attr is not None:
        monkeypatch.setattr(cli, attr, stand_in)
    job_file = tmp_path / "job.json"
    job_file.write_text(job_text(command=command, vectors=vectors))
    assert main([command, "--input", str(job_file)]) == code
    captured = capsys.readouterr()
    if command == "analyze":
        # a classification: the certificate is written, nothing to stderr
        doc = json.loads(captured.out)
        assert not captured.err and doc["command"] == command
    else:
        assert captured.err.startswith("error: ") and not captured.out


@pytest.mark.parametrize("command", ["norms", "analyze"])
def test_main_rejects_a_norm_column_that_overflows(tmp_path, capsys, command):
    job_file = tmp_path / "job.json"
    job_file.write_text(job_text(command=command, vectors=[[1, 3], [1e308, 1e-308]]))
    assert main([command, "--input", str(job_file)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: vectors[1]: ") and not captured.out


@pytest.mark.parametrize(
    "window, message",
    [
        # weights ~1e158 times points ~1e160 overflow the moment, which is
        # refused before the noisy winding is held against the bound
        ({"re": [-1e160, 1e160]}, "first moment"),
        # a thin strip on the real axis counts 0 cleanly, but its moment overflows
        ({"re": [-1e300, 1e299], "im": [0, 1e-9]}, "first moment"),
    ],
)
def test_main_exits_3_on_a_window_far_from_the_origin(tmp_path, capsys, window, message):
    job_file = tmp_path / "job.json"
    job_file.write_text(job_text(command="zeros", vectors=[[1, 2]], window=window))
    assert main(["zeros", "--input", str(job_file)]) == 3
    captured = capsys.readouterr()
    assert message in captured.err and not captured.out


@pytest.mark.parametrize(
    "vector, window, axis",
    [
        ([1, 9], {"re": [1e308, 1.5e308]}, "re"),
        ([1, 2], {"re": [-1.7e308, 1.7e308]}, "re"),
        ([1, 2], {"im": [1e308, 1.5e308]}, "im"),
        ([5e-324, 1.7e308], {"re": [-1.88e305, 1.88e305]}, "re"),
        ([1e-300, 1e300], {"re": [-1.5e305, 1.5e305]}, "re"),
    ],
)
def test_main_refuses_a_window_beyond_the_reach_of_float64(
    tmp_path, capsys, vector, window, axis
):
    # a bound of the window inflated 8 times, times the largest difference
    # of two exponents ln|x| of float64 x's, 709.8 + 744.4, must be finite;
    # such windows once ended in numpy warnings and "rectangle must have
    # positive width and height" when an inflation overflowed, and the last
    # two in overflow warnings from the kernel before exiting 3
    job_file = tmp_path / "job.json"
    job_file.write_text(job_text(command="zeros", vectors=[vector], window=window))
    assert main(["zeros", "--input", str(job_file)]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == (
        f"error: window.{axis}: a bound above 9.7e+304 in magnitude is out of float64's reach\n"
    )


@pytest.mark.parametrize("vector", [[5e-324, 1.7e308], [1e-300, 1e300]])
@pytest.mark.parametrize("axis", ["re", "im"])
def test_a_window_at_the_reach_of_float64_is_judged_without_warnings(
    tmp_path, capsys, vector, axis
):
    # just inside the bound, with the widest exponent spread float64
    # allows: the kernel's exponent * p - M and the zero bound's
    # height * spread / 2pi once overflowed here, and warnings are errors
    # under this suite; the count is refused, not the window
    job_file = tmp_path / "job.json"
    window = {axis: [-9.6e304, 9.6e304]}
    job_file.write_text(job_text(command="zeros", vectors=[vector], window=window))
    assert main(["zeros", "--input", str(job_file)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and not captured.out


def test_main_exits_3_on_a_zero_count_beyond_the_bound(tmp_path, capsys):
    # the window of test_count_beyond_the_zero_bound_is_refused, as a job
    job_file = tmp_path / "job.json"
    job_file.write_text(
        job_text(command="zeros", vectors=[[1, 2]], window={"re": [-1e50, 1e50]})
    )
    assert main(["zeros", "--input", str(job_file)]) == 3
    captured = capsys.readouterr()
    assert "zeros there" in captured.err and not captured.out


def test_monodromy_at_a_vanishing_quad_tol_does_not_blame_the_input(
    tmp_path, capsys, monkeypatch
):
    # a winding tolerance of 1e-300 accepts only windings that land on an
    # integer exactly; a failed zero search once reported a cluster there,
    # and the loop around it exited 1 with "... is not a zero of f"
    monkeypatch.setattr(exppoly, "_QUAD_TOL", 1e-300)
    job_file = tmp_path / "job.json"
    job_file.write_text(
        job_text(
            command="monodromy",
            vectors=[[1, 2, 3], [math.e, 1]],
            window={"im": [1, 20]},
        )
    )
    assert main(["monodromy", "--input", str(job_file)]) == 3
    captured = capsys.readouterr()
    assert "not a zero" not in captured.err and not captured.out


_BUDGET = "error: step budget of 100000 evaluated points spent before the path end\n"
_TOO_SMALL = (
    "error: base_p 1e-300 is too small: the loop's phase 2 pi m / base_p = 6.28e+300 rad "
    "is not resolved to 1e-06 in float64\n"
)


@pytest.mark.parametrize(
    "vector, window, options, code, err",
    [
        # the loop from base_p 2 passes; the one from 1e6 is refused by its budget
        ([math.e, 1], None, {"base_p": [2, 1e6]}, 3, _BUDGET),
        # a continuation refusal of the first loop comes before a
        # validation error of the second, and the other way round
        ([math.e, 1], None, {"base_p": [1e6, 1e-300]}, 3, _BUDGET),
        ([math.e, 1], None, {"base_p": [1e-300, 1e6]}, 1, _TOO_SMALL),
        # the loop around 1 + 2^p + 5^p's first zero passes; the second zero's
        # loop runs past the zero at 0.19 + 2.55i ...
        (
            [1, 2, 5],
            {"im": [0.5, 20]},
            {"radius": 2.0, "base_p": [2]},
            1,
            "error: path passes within 1.0 of the zero at (0.19208234558188883+2.5517748317909796j)\n",
        ),
        # ... unless a loop around the first zero is refused by its budget first
        ([1, 2, 5], {"im": [0.5, 20]}, {"radius": 2.0, "base_p": [2, 1e6]}, 3, _BUDGET),
    ],
    ids=[
        "later-budget",
        "budget-before-validation",
        "validation-before-budget",
        "later-clearance",
        "budget-before-clearance",
    ],
)
def test_the_first_loop_to_fail_decides_a_monodromy_job(
    tmp_path, capsys, vector, window, options, code, err
):
    # the loops of a vector are checked and continued together, yet the
    # job ends as if they ran one after another: with the error of the
    # first loop, in (zero, base_p) order, to fail at any stage
    job_file = tmp_path / "job.json"
    doc = {"vectors": [vector], "options": options, **({"window": window} if window else {})}
    job_file.write_text(job_text(command="monodromy", **doc))
    assert main(["monodromy", "--input", str(job_file)]) == code
    captured = capsys.readouterr()
    assert captured.err == err and not captured.out


def test_a_loop_around_an_unrefined_zero_does_not_blame_the_input(tmp_path, capsys):
    # the zero search reports 1 + 2^p's zero near Im 1e15 unrefined, at its
    # box's centroid, where |f| is 1e-2 of its term scale; the loop around
    # it once exited 1 with "... is not a zero of f"
    job_file = tmp_path / "job.json"
    window = {"re": [-1, 1], "im": [1e15, 1e15 + 10]}
    job_file.write_text(job_text(command="monodromy", vectors=[[1, 2]], window=window))
    assert main(["monodromy", "--input", str(job_file)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: unrefined zero at (") and not captured.out
    assert "not a zero" not in captured.err


def test_a_loop_that_would_touch_the_real_axis_names_the_radius(tmp_path, capsys):
    job_file = tmp_path / "job.json"
    job_file.write_text(
        job_text(command="monodromy", vectors=[[1, 2]], options={"radius": 5})
    )
    assert main(["monodromy", "--input", str(job_file)]) == 1
    captured = capsys.readouterr()
    # the zero of 1 + 2^p nearest the real axis, i pi / ln 2 = 4.53i
    assert re.fullmatch(
        r"error: options\.radius: the loop of radius 5\.0 around the zero at "
        r"\(\S+\+4\.53236014182719\d*j\) would touch the real axis\n",
        captured.err,
    )
    assert not captured.out


def test_monodromy_at_a_tiny_base_p_reads_no_norm_value(tmp_path, capsys):
    # exp(logf / p) overflows for p near 0; a loop reads only log f, so the
    # continued norm value must not be computed for it
    job_file = tmp_path / "job.json"
    doc = {"vectors": [[1, 2]], "options": {"base_p": [1e-6, 1e-9], "target_index": 0}}
    job_file.write_text(job_text(command="monodromy", **doc))
    assert main(["monodromy", "--input", str(job_file)]) == 0
    loops = json.loads(capsys.readouterr().out)["payload"]["results"][0]["loops"]
    assert [loop["rel_error"] for loop in loops] == [0.0, 0.0]


@pytest.mark.parametrize(
    "vectors",
    [[[1e200], [1e-200]], [[1e200], [1e-200], [1, 1]], [[1e160], [1e-160], [1, 1]]],
)
def test_analyze_a_class_whose_scale_ratio_leaves_float64(tmp_path, capsys, vectors):
    # the trivial vector (1e-200, -1e200) once lost its first entry when it
    # was divided by its largest before scaling, and the angle read ~pi/4
    job_file = tmp_path / "job.json"
    job_file.write_text(job_text(command="analyze", vectors=vectors, interval=[1, 4]))
    assert main(["analyze", "--input", str(job_file)]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["classification"] == "consistent-with-theorem"
    assert payload["principal_angle"] <= 1e-6


def test_monodromy_at_a_huge_base_p_warns_nothing(tmp_path, capsys):
    # segments ~1e300 long once overflowed when squared in the clearance
    # check, which then passed on nan distances with a RuntimeWarning
    job_file = tmp_path / "job.json"
    job_file.write_text(
        job_text(command="monodromy", vectors=[[1, 2]], options={"base_p": 1e300})
    )
    # every warning is an error in this suite (pyproject filterwarnings)
    assert main(["monodromy", "--input", str(job_file)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not captured.out


@pytest.mark.parametrize("base_ps", [[1e308], [2, 3e307, 1.7976931348623157e308]])
def test_monodromy_beyond_the_step_budget_warns_nothing(tmp_path, capsys, base_ps):
    # legs of ~1e308 once overflowed the count of their pieces (gap / 0.25)
    # and its sum, which printed numpy RuntimeWarnings before the refusal
    job_file = tmp_path / "job.json"
    job_file.write_text(
        job_text(command="monodromy", vectors=[[1, 2]], options={"base_p": base_ps})
    )
    # every warning is an error in this suite (pyproject filterwarnings)
    assert main(["monodromy", "--input", str(job_file)]) == 3
    captured = capsys.readouterr()
    assert captured.err == _BUDGET and not captured.out


@pytest.mark.parametrize("base_p, code", [(1e-308, 1), (5e-324, 1), (1e-300, 1), (1e-3, 0)])
def test_monodromy_refuses_a_base_p_whose_phase_float64_cannot_resolve(
    tmp_path, capsys, base_p, code
):
    # (1 + 2^p)^2 has a double zero at i pi / ln 2; its factor
    # exp(4 pi i / base_p) raised a bare math domain error for a phase that
    # overflows, and read rel_error 0 for one of 1.3e301 rad, where float64
    # spaces phases ~1e285 apart
    job_file = tmp_path / "job.json"
    options = {"radius": 0.5, "base_p": [base_p]}
    doc = {"vectors": [[1, 2, 2, 4]], "window": {"im": [1, 6]}, "options": options}
    job_file.write_text(job_text(command="monodromy", **doc))
    assert main(["monodromy", "--input", str(job_file)]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err.startswith("error: base_p ") and not captured.out
    else:
        (loop,) = json.loads(captured.out)["payload"]["results"][0]["loops"]
        assert loop["multiplicity"] == 2 and loop["rel_error"] <= 1e-6


def test_a_zero_far_up_the_imaginary_axis_is_reported_inside_its_window(tmp_path, capsys):
    # 1 + 2^p has one zero, near Im 1e15 + 6.5, in this window; Newton cannot
    # refine it there, and its location came from the first moment about 0,
    # whose quadrature error times |p| ~ 1e15 put it 3.6e11 above the window
    job_file = tmp_path / "job.json"
    window = {"re": [-1, 1], "im": [1e15, 1e15 + 10]}
    job_file.write_text(job_text(command="zeros", vectors=[[1, 2]], window=window))
    assert main(["zeros", "--input", str(job_file)]) == 0
    (result,) = json.loads(capsys.readouterr().out)["payload"]["results"]
    (zero,) = result["zeros"]
    assert result["total"] == 1 and zero["multiplicity"] == 1 and not zero["refined"]
    assert -1 <= zero["re"] <= 1 and 1e15 <= zero["im"] <= 1e15 + 10
    k = round((1e15 * math.log(2.0) / math.pi - 1) / 2) + 1  # the zero (2k+1) pi i / ln 2
    assert abs(zero["im"] - (2 * k + 1) * math.pi / math.log(2.0)) < 1.0
