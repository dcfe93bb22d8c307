import json
import math

import numpy as np
import pytest

from mwgraph.errors import NonFiniteError, ParseError
from mwgraph.frames import load_frame
from mwgraph.graphs import load
from mwgraph.jsonio import dumps, format_float
from mwgraph.sheaf import load_truss

# an integer literal beyond float range: float() raises OverflowError on it
HUGE = 10**400
# one file per loader, each with HUGE in its first number entry
HUGE_FILES = [
    (load, {"k": 1, "n": 2, "edges": [{"u": 0, "v": 1, "w": [HUGE]}]},
     "malformed edge entry #0: w entry must fit a float, got 1000"),
    (load_frame, {"k": 1, "projections": [[HUGE]]},
     "malformed frame JSON: projection entry must fit a float, got 1000"),
    (load_truss, {"points": [[HUGE, 0, 0]], "edges": []},
     "malformed truss JSON: point coordinate must fit a float, got 1000"),
]


def test_dumps_basic_types():
    doc = {"a": 1, "b": True, "c": None, "d": "x\"y", "e": [1.5, 2]}
    text = dumps(doc)
    assert json.loads(text) == doc


def test_dumps_preserves_insertion_order():
    assert dumps({"z": 1, "a": 2}) == '{"z": 1, "a": 2}'


def test_dumps_floats_round_trip_exactly():
    values = [math.pi, 1 / 3, 1e-300, 6.02e23, -0.0, 2.5]
    for x in values:
        assert json.loads(dumps(x)) == x


def test_dumps_numpy_values():
    doc = {"m": np.eye(2), "s": np.float64(0.5), "i": np.int64(3)}
    parsed = json.loads(dumps(doc))
    assert parsed == {"m": [[1.0, 0.0], [0.0, 1.0]], "s": 0.5, "i": 3}


def test_dumps_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        dumps({"x": float("nan")})
    with pytest.raises(NonFiniteError):
        dumps([float("inf")])


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps({"x": object()})
    with pytest.raises(TypeError):
        dumps({1: "non-string key"})


def test_format_float_is_deterministic():
    assert format_float(0.1) == format_float(0.1)
    assert format_float(1.0) == "1"
    assert float(format_float(math.sqrt(2))) == math.sqrt(2)


@pytest.mark.parametrize("loader, doc, message", HUGE_FILES,
                         ids=["graph", "frame", "truss"])
def test_loaders_reject_an_integer_beyond_float_range(loader, doc, message):
    with pytest.raises(ParseError) as err:
        loader(json.dumps(doc).encode())
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("loader", [load, load_frame, load_truss])
def test_loaders_reject_nesting_past_the_recursion_limit(loader):
    depth = 100_000
    with pytest.raises(ParseError, match="^invalid .*: maximum recursion depth exceeded"):
        loader(b"[" * depth + b"]" * depth)
