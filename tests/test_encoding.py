"""The certificate encoder writes exactly what the standard json encoder
writes with ``indent=2, sort_keys=True, allow_nan=False``."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pnormcert.cli import _to_json, parse_jobspec, run

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
TEXT = st.text() | st.sampled_from(["", "\x00\x1f\x7f", "é", " ", "😀", '"\\/'])
SCALARS = FLOATS | INTS | st.booleans() | st.none() | TEXT

DOCS = st.recursive(
    SCALARS | st.lists(FLOATS, min_size=1),
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(TEXT, children),
    max_leaves=40,
)


def stdlib(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


@ENCODE
@given(DOCS)
def test_encoding_equals_the_standard_encoder(doc):
    assert _to_json(doc) == stdlib(doc)


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
        stdlib(wrap(bad))
    with pytest.raises(ValueError):
        _to_json(wrap(bad))


@pytest.mark.parametrize("bad", [object(), {1, 2}, np.int64(1), [1.0, b"x"], {"a": 1j}])
def test_an_unsupported_type_raises_type_error(bad):
    with pytest.raises(TypeError):
        _to_json(bad)


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
    doc = {name: getattr(cert, name) for name in cert.__dataclass_fields__}
    assert cert.to_json() == stdlib(doc) + "\n"
