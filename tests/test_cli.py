import json
import math
import re
from pathlib import Path

import pytest

from pnormcert import InvalidInputError, Rectangle, SampleGrid, cli, dependence
from pnormcert.cli import (
    DEFAULT_WINDOW,
    OPTIONS,
    emit_curves,
    main,
    parse_jobspec,
    run,
)
from pnormcert.vectors import RealVector

README = Path(__file__).resolve().parent.parent / "README.md"

# One value per job option, each different from the option's default.
NON_DEFAULT = {
    "grid_count": 12,
    "equiv_tol": 1e-7,
    "merge_tol": 1e-10,
    "quad_tol": 1e-4,
    "base_p": [2.5, 3.0],
    "radius": 0.5,
    "target_index": 1,
    "include_zero_evidence": True,
    "output": "cert.json",
    "curves": "curves.csv",
}


def job_text(**fields) -> str:
    return json.dumps(fields)


def reads(key: str) -> tuple[str, ...]:
    """The commands that read the job option ``key``."""
    return OPTIONS[key].metadata["commands"]


# A small job of each command that runs cleanly with every option it reads
# set to its NON_DEFAULT value: e^p + 1 has two zeros, i*pi and 3i*pi, in
# the window, so target_index 1 exists.
RUNNABLE = {
    "zeros": dict(vectors=[[math.e, 1]], window={"im": [1, 10]}),
    "monodromy": dict(vectors=[[math.e, 1]], window={"im": [1, 10]}),
    "norms": dict(vectors=[[1, 0], [0, 1]], interval=[1, "inf"]),
    "equiv": dict(vectors=[[1, 0], [0, 1]]),
    "analyze": dict(vectors=[[1, 0], [0, 1]], interval=[1, "inf"]),
}


def test_parse_fills_defaults():
    job = parse_jobspec(job_text(command="analyze", vectors=[[1, 0], [0, 1], [1, 1]]))
    assert job.command == "analyze"
    assert [v.coords for v in job.vectors] == [(1, 0), (0, 1), (1, 1)]
    assert job.interval == (1.0, 4.0)
    assert job.window == DEFAULT_WINDOW
    assert job.grid_count is None
    assert job.equiv_tol == 1e-9
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
    with pytest.raises(InvalidInputError) as err:  # read by nothing, so not an option
        parse_jobspec(job_text(command="zeros", vectors=[[1]], options={"match_tol": 1e-6}))
    assert "options" in str(err.value) and "match_tol" in str(err.value)


def test_parse_command_and_schema_checks():
    with pytest.raises(InvalidInputError):
        parse_jobspec(job_text(schema=2, command="zeros", vectors=[[1]]))
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
            interval=["1", "inf"],
            options={"radius": "0.5"},
        )
    )
    assert job.vectors[0].coords == (3.0, 4.0)
    assert job.interval == (1.0, math.inf)
    assert job.radius == 0.5


def test_parse_interval_validation():
    with pytest.raises(InvalidInputError):
        parse_jobspec(job_text(command="norms", vectors=[[1]], interval=[2, 2]))
    with pytest.raises(InvalidInputError):
        parse_jobspec(job_text(command="norms", vectors=[[1]], interval=[0.5, 3]))
    with pytest.raises(InvalidInputError):
        parse_jobspec(job_text(command="norms", vectors=[[1]], interval=[1]))


def test_parse_option_validation():
    for key, value in (
        ("grid_count", 1),
        ("equiv_tol", 0),
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
    [(key, cmd) for key in sorted(OPTIONS) for cmd in cli.COMMANDS if cmd not in reads(key)],
)
def test_parse_rejects_options_the_command_does_not_read(key, command):
    with pytest.raises(InvalidInputError) as err:
        parse_jobspec(
            job_text(command=command, vectors=[[1]], options={key: NON_DEFAULT[key]})
        )
    assert str(err.value) == f"options.{key}: not read by {command}"


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


def test_run_norms_payload():
    job = parse_jobspec(
        job_text(
            command="norms",
            vectors=[[1, 1]],
            interval=[1, 2],
            options={"grid_count": 2},
        )
    )
    cert, code = run(job)
    assert code == 0
    assert cert.payload["grid"]["points"] == [1.0, 2.0]
    col = [row[0] for row in cert.payload["norms"]]
    assert col[0] == pytest.approx(2.0, rel=1e-15)
    assert col[1] == pytest.approx(math.sqrt(2.0), rel=1e-15)


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
        assert set(loop["zero_formula_factor"]) == {"re", "im"}
        assert loop["radius"] == 0.5


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


def test_input_echo_round_trips():
    job = parse_jobspec(
        job_text(
            command="analyze",
            vectors=[[1, 0], [0, 1]],
            interval=[1, "inf"],
            options={"grid_count": 12, "include_zero_evidence": False},
        )
    )
    cert, _ = run(job)
    again = parse_jobspec(json.dumps(cert.input))
    assert again == job


@pytest.mark.parametrize("key", sorted(OPTIONS))
def test_input_echo_round_trips_each_option(key):
    opt = OPTIONS[key]
    assert reads(key)
    for command in reads(key):
        job = parse_jobspec(
            job_text(command=command, **RUNNABLE[command], options={key: NON_DEFAULT[key]})
        )
        assert getattr(job, opt.name) != opt.default
        cert, _ = run(job)
        assert cert.input["options"][key] == NON_DEFAULT[key], command
        # the echo holds exactly the options the command reads
        assert sorted(cert.input["options"]) == sorted(
            k for k in OPTIONS if command in reads(k)
        ), command
        assert parse_jobspec(json.dumps(cert.input)) == job, command


def test_analyze_zero_evidence_uses_the_job_quad_tol(monkeypatch):
    seen = []
    real = dependence.zero_multiset_equal

    def spy(f, g, rect, match_tol=1e-6, quad_tol=None):
        seen.append(quad_tol)
        return real(f, g, rect, match_tol, quad_tol)

    monkeypatch.setattr(dependence, "zero_multiset_equal", spy)
    job = parse_jobspec(
        job_text(
            command="analyze",
            vectors=[[math.e, 1], [math.e**2, 1]],
            window={"im": [1, 10]},
            options={"include_zero_evidence": True, "quad_tol": 0.01},
        )
    )
    cert, _ = run(job)
    assert seen == [0.01]
    assert cert.payload["zero_checks"] == [{"i": 0, "j": 1, "equal": False}]


def test_job_schema_has_ten_options():
    assert len(OPTIONS) == 10
    assert sorted(OPTIONS) == sorted(NON_DEFAULT)


def test_readme_options_table_matches_the_code():
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 4:
            # "Read by" is "all (...)" or the backquoted commands
            named = [w for w in re.findall(r"`([^`]+)`", cells[2]) if w in cli.COMMANDS]
            commands = cli.COMMANDS if cells[2].startswith("all") else tuple(named)
            rows[cells[0].strip("`")] = (json.loads(cells[1].strip("`")), commands)
    assert sorted(rows) == sorted(OPTIONS)
    for key, (default, commands) in rows.items():
        assert sorted(commands) == sorted(reads(key)), key
        base = dict(command=commands[0], vectors=[[1]])
        default_job = parse_jobspec(job_text(**base))
        assert parse_jobspec(job_text(**base, options={key: default})) == default_job, key


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
