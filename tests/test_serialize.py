import json

import numpy as np
import pytest

from mub6 import serialize
from mub6.serialize import dump_json

from test_cli import run_cli


def _json(data):
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


_FLOATS = [0.0, -0.0, 1.0, -2.5, 0.1, 1e300, -1e-300, 5e-324, 1e16, 123456789.0, float("nan"), float("inf"), float("-inf")]
_INTS = [0, 1, -7, 2**53 + 1, 10**400, -(10**30)]
_STRINGS = ["", "a", "key", "café", "∑ π", "\U0001f600", "\x00\x1f\n\t\"\\/", " \ud800"]


def _number(rng):
    pool = _FLOATS + _INTS + [True, False, float(rng.normal()), int(rng.integers(-1000, 1000))]
    return pool[rng.integers(len(pool))]


def _table(rng):
    """A list or tuple of rows of numbers, sometimes ragged or with empty rows."""
    rows, width = int(rng.integers(0, 5)), int(rng.integers(0, 4))
    shape = rng.integers(4)
    out = []
    for _ in range(rows):
        n = width if shape else int(rng.integers(0, 4))
        row = [_number(rng) if rng.random() < 0.3 else float(rng.normal()) for _ in range(n)]
        out.append(tuple(row) if rng.random() < 0.2 else row)
    return tuple(out) if rng.random() < 0.2 else out


def _value(rng, depth):
    kind = rng.integers(7 if depth < 4 else 3)
    if kind == 0:
        return _number(rng)
    if kind == 1:
        return _STRINGS[rng.integers(len(_STRINGS))]
    if kind == 2:
        return None
    if kind == 3:
        return _table(rng)
    if kind == 4:
        items = [_value(rng, depth + 1) for _ in range(rng.integers(0, 4))]
        return tuple(items) if rng.random() < 0.3 else items
    if kind == 5:
        return {_STRINGS[rng.integers(len(_STRINGS))] + str(k): _value(rng, depth + 1) for k in range(rng.integers(0, 4))}
    # Keys json writes as text: numbers, bools and None.
    keys = [[1, 2.5, -3, True], [0.5, float("inf"), -0.0], [None]][rng.integers(3)]
    return {key: _value(rng, depth + 1) for key in keys[: rng.integers(len(keys) + 1)]}


def test_dump_json_writes_what_json_writes(monkeypatch):
    tables, table = [], serialize._table

    def spied(rows, indent):
        text = table(rows, indent)
        tables.append(text is not None)
        return text

    monkeypatch.setattr(serialize, "_table", spied)
    rng = np.random.default_rng(3)
    corpus = [_value(rng, 0) for _ in range(400)]
    # numpy float scalars are floats to json; a table of them goes the long way.
    corpus += [
        {"v": [[np.float64(0.1), 2.0], [3.0, np.float64(-0.0)]]},
        [[1, 2], [3, 4]],
        [[1.5], [2.5]],
        [[1, 2.0], [3]],
        [[], []],
        [],
        {},
        [[True, 1]],
        "café",
        7,
    ]
    for data in corpus:
        assert dump_json(data) == _json(data)
    # Both the one-format tables and the lists json's way are exercised.
    assert tables.count(True) > 30 and tables.count(False) > 30


@pytest.mark.parametrize(
    "data",
    [
        np.int64(1),
        {"a": np.int64(1)},
        [[1, np.int64(2)]],
        [np.bool_(True)],
        {(1, 2): 1},
        {1: "a", "b": 2},
        {"a": {1, 2}},
        b"bytes",
        [1j],
        # repr(object()) holds an address, so this case gets a fixed id.
        pytest.param(object(), id="object()"),
    ],
    ids=repr,
)
def test_dump_json_raises_the_type_error_json_raises(data):
    with pytest.raises(TypeError) as want:
        json.dumps(data, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as got:
        dump_json(data)
    assert str(got.value) == str(want.value)


def test_every_cli_output_is_what_json_writes(tmp_path, capsys, monkeypatch):
    written = []
    dump = serialize.dump_json

    def spied(data):
        written.append(data)
        return dump(data)

    monkeypatch.setattr(serialize, "dump_json", spied)
    pair, script = str(tmp_path / "pair.json"), str(tmp_path / "script.json")
    vectors, graph = str(tmp_path / "vectors.json"), str(tmp_path / "graph.json")
    p3 = ["--zeta", "0.4", "--chi", "1.1", "--sigma", "0.9", "--tau", "2.0"]
    runs = [
        (0, "construct", "--family", "P3", *p3),
        (0, "reduce", "--family", "P3", *p3, "--out", pair, "--emit-script", script),
        (0, "verify", "--pair", pair),
        (0, "fingerprint", "--pair", pair),
        (0, "search-extend", "--pair", pair, "--restarts", "2048", "--out", vectors),
        (0, "ortho-graph", "--vectors", vectors, "--out", graph),
        (0, "reduce", "--family", "P2", "--out", pair),
        (0, "search-extend", "--pair", pair, "--restarts", "400"),
        (1, "construct", "--family", "P1", "--xi", "0.7"),
        (1, "ortho-graph", "--vectors", pair),
    ]
    for code, *argv in runs:
        assert run_cli(capsys, *argv)[0] == code, argv
    assert len(written) == 11
    for data in written:
        assert dump(data) == _json(data)
    edges = [d["edges"] for d in written if "edges" in d]
    assert len(edges) == 1 and len(edges[0]) > 100
