"""Fuzzing of job files through ``cli.main``.

Every job file, well formed or not, must end in exit code 0-3 with no
traceback: bad input exits 1 naming the field, numerical trouble exits 3
(or 2 for an unexpected dependence).  The drawn files mix valid fields
with wrong types, unknown keys, numbers as strings, extreme magnitudes and
flags set on commands that do not read them.

Cost limits, so that each example stays cheap.  They bound how much work
a job asks for; the extreme values still reach the parser through the jobs
that do not search for zeros:

- in jobs that find zeros (``zeros``, ``monodromy``, and ``analyze`` with
  ``include_zero_evidence``), coordinate magnitudes lie in [e^-2, e^2], so
  with window heights in (0, 10] a window holds at most about
  10 * 4 / 2pi + 6 zeros (Polya); other jobs draw magnitudes in
  [1e-300, 1e300];
- ``base_p`` is at most 50 (a loop's cost grows with its base point);
- a job holds at most 4 vectors of at most 6 coordinates.
"""

import contextlib
import io
import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pnormcert import cli

FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# Values of the wrong type for any field.
ODD = st.sampled_from(
    [None, True, "", "abc", "nan", "-inf", [], [1], {}, {"re": [0, 1]}, -1, 0, 1e400]
)


def mostly(x: st.SearchStrategy, one_in: int = 8) -> st.SearchStrategy:
    """``x``, or an ODD value once in ``one_in`` draws."""
    return st.integers(1, one_in).flatmap(lambda i: ODD if i == one_in else x)


def as_text(x: st.SearchStrategy) -> st.SearchStrategy:
    """``x`` as a JSON number or, now and then, as a decimal string."""
    return st.one_of(x, x.map(repr))


def magnitudes(finds_zeros: bool) -> st.SearchStrategy:
    if finds_zeros:
        return st.floats(-2.0, 2.0).map(math.exp)
    return st.one_of(
        st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
        st.sampled_from([5e-324, 1e-310, 1.7976931348623157e308, 0.0]),
    )


def vectors(finds_zeros: bool) -> st.SearchStrategy:
    signed = st.tuples(magnitudes(finds_zeros), st.booleans()).map(
        lambda t: -t[0] if t[1] else t[0]
    )
    vector = st.lists(mostly(as_text(signed), 64), min_size=1, max_size=6)
    return mostly(st.lists(mostly(vector, 32), min_size=1, max_size=4), 32)


INTERVALS = mostly(
    st.lists(
        as_text(st.sampled_from([0.5, 1, 1.0000000000000002, 2, 40, 1e300, math.inf])),
        min_size=2,
        max_size=2,
    ).map(lambda pair: sorted(pair, key=float))
    | st.lists(st.integers(1, 3), min_size=1, max_size=3)
)
WINDOWS = mostly(
    st.fixed_dictionaries(
        {},
        optional={
            "re": mostly(
                st.tuples(
                    st.sampled_from([-1e300, -1e160, -50.0, -1.0, 0.0, 0.25]),
                    st.sampled_from([-0.5, 0.0, 1.0, 3.0, 1e160, 1e300]),
                ).map(list)
            ),
            "im": mostly(
                st.tuples(st.floats(-5.0, 40.0), st.floats(1e-9, 10.0)).map(
                    lambda t: [t[0], t[0] + t[1]]
                )
            ),
        },
    )
)
VALUES = {
    "interval": INTERVALS,
    "window": WINDOWS,
    "base_p": mostly(
        as_text(st.floats(1e-3, 50.0)) | st.lists(as_text(st.floats(1e-3, 50.0)), max_size=3)
    ),
    "radius": mostly(as_text(st.sampled_from([1e-9, 0.1, 0.25, 2.0, 1e300]))),
    "target_index": mostly(st.integers(-1, 4) | st.none()),
    "include_zero_evidence": mostly(st.booleans()),
}
# Keys no command reads: the retired options and one never defined.
UNREAD = (
    "output",
    "curves",
    "match_tol",
    "quad_tol",
    "merge_tol",
    "equiv_tol",
    "grid_count",
    "extra",
)


@st.composite
def job_files(draw) -> tuple[list[str], str]:
    """(the command and the flags after the input path, job file text)."""
    command = draw(st.sampled_from(cli.COMMANDS))
    # mostly fields the command reads (equiv reads none); now and then any other one
    keys = [key for key in cli.FIELDS if command in cli.FIELDS[key].metadata["commands"]]
    keys = draw(st.lists(st.sampled_from(keys), unique=True, max_size=4)) if keys else []
    if draw(st.integers(1, 8)) == 8:
        keys.append(draw(st.sampled_from([*cli.FIELDS, *UNREAD])))
    values = {key: draw(VALUES.get(key, ODD)) for key in keys}
    finds_zeros = command in ("zeros", "monodromy") or values.get("include_zero_evidence") is True
    doc = {"vectors": draw(vectors(finds_zeros))}
    doc.update((key, values.pop(key)) for key in ("interval", "window") if key in values)
    if values:
        doc["options"] = values
    if draw(st.integers(1, 16)) == 16:
        doc[draw(st.sampled_from(["schema", "command", "options", "extra"]))] = draw(ODD)
    text = json.dumps(doc)
    if draw(st.integers(1, 16)) == 16:
        text = draw(st.sampled_from(["", "[]", "{", text[:-1], "null"]))
    flags = [command]
    if draw(st.integers(1, 4)) == 4:
        flags += ["--curves", "curves.csv"]
    # 0 and -1 threads, which main must refuse, in one draw of 8
    flags += ["--threads", str(draw(st.sampled_from([1, 1, 1, 2, 2, 2, 0, -1])))]
    return flags, text


@FUZZ
@given(job_files())
def test_job_files_exit_0_to_3(tmp_path_factory, case):
    flags, text = case
    work = tmp_path_factory.mktemp("fuzz")
    job = work / "job.json"
    job.write_text(text, encoding="utf-8")
    command, rest = flags[0], flags[1:]
    rest = [str(work / a) if a == "curves.csv" else a for a in rest]
    argv = [command, "--input", str(job), "--output", str(work / "cert.json"), *rest]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
