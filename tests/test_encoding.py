"""The certificate layout: one line per top-level key, sorted, each value as
the standard json encoder writes it compactly with ``sort_keys=True,
allow_nan=False``."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pnormcert.cli import Certificate, parse_jobspec, run

ENCODE = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

FLOATS = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1e16, 0.1])
    | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
)
INTS = st.integers(min_value=-(2**80), max_value=2**80) | st.sampled_from(
    [2**53 + 1, -(2**63), 2**64]
)
TEXT = st.text() | st.sampled_from(["", "\x00\x1f\x7f", "é", " ", "😀", '"\\/', "\n"])
SCALARS = FLOATS | INTS | st.booleans() | st.none() | TEXT

DOCS = st.recursive(
    SCALARS | st.lists(FLOATS, min_size=1),
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(TEXT, children),
    max_leaves=40,
)

KEYS = ("command", "input", "payload", "schema", "timing_ms", "version")
# the rule by which bench/oracle.py compares two runs of one job
TIMING_LINE = re.compile(rb'\n  "timing_ms": [^\n]*')


def certificate(payload) -> Certificate:
    return Certificate("0.1.0", 1, "zeros", {"command": "zeros"}, payload, 1.5)


def plain(value):
    """``value`` as json.loads gives it back: tuples read as lists."""
    if isinstance(value, (list, tuple)):
        return [plain(x) for x in value]
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    return value


def check_layout(cert: Certificate) -> None:
    text = cert.to_json()
    assert text.endswith("}\n")
    lines = text.splitlines()
    assert len(lines) == 8
    assert lines[0] == "{" and lines[-1] == "}"
    for key, line in zip(KEYS, lines[1:-1]):
        value = json.dumps(getattr(cert, key), sort_keys=True, allow_nan=False)
        comma = "" if key == KEYS[-1] else ","
        assert line == f'  "{key}": {value}{comma}'
    assert json.loads(text) == {key: plain(getattr(cert, key)) for key in KEYS}


@ENCODE
@given(DOCS)
def test_encoding_equals_the_standard_encoder(doc):
    check_layout(certificate(doc))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float64(math.inf)])
@pytest.mark.parametrize(
    "wrap",
    [
        lambda x: x,
        lambda x: [1.0, x, 2.0],
        lambda x: [[0.5], [x]],
        lambda x: [1, "a", x],
        lambda x: {"a": x},
        lambda x: {"a": [{"b": (x,)}]},
    ],
)
def test_a_non_finite_float_raises_value_error(bad, wrap):
    with pytest.raises(ValueError):
        certificate(wrap(bad)).to_json()


@pytest.mark.parametrize("bad", [object(), {1, 2}, np.int64(1), [1.0, b"x"], {"a": 1j}])
def test_an_unsupported_type_raises_type_error(bad):
    with pytest.raises(TypeError):
        certificate(bad).to_json()


JOBS = [
    dict(command="zeros", vectors=[[math.e, 1]], window={"im": [1, 10]}),
    dict(command="norms", vectors=[[1, 0], [0, 1]], interval=[1, "inf"]),
    dict(command="monodromy", vectors=[[math.e, 1]], options={"base_p": [2, 3.5]}),
    dict(command="equiv", vectors=[[1, 2], [2, 4], [3, -1]]),
    dict(command="analyze", vectors=[[1, 2], [2, 4], [3, 1]], interval=[1, "inf"]),
    dict(
        command="analyze",
        vectors=[[1, 2], [-2, -4], [1, 1, 1]],
        window={"im": [1, 10]},
        options={"include_zero_evidence": True},
    ),
]


@pytest.mark.parametrize("job", JOBS, ids=lambda job: job["command"])
def test_certificates_equal_the_standard_encoding(job):
    cert, _ = run(parse_jobspec(json.dumps(job)))
    check_layout(cert)


@pytest.mark.parametrize("job", JOBS, ids=lambda job: job["command"])
def test_two_runs_differ_at_most_on_the_timing_line(job):
    first, again = (run(parse_jobspec(json.dumps(job)))[0].to_json().encode() for _ in "12")
    assert first.count(b'\n  "timing_ms": ') == 1
    assert TIMING_LINE.sub(b"", first) == TIMING_LINE.sub(b"", again)
