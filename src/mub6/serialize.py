"""JSON wrappers for pairs, scripts and search results.

Matrices embed as the shared text format; floats rely on Python's shortest
round-trip repr, so every serialized double survives a load/dump cycle
bit-exactly. Every number a reader takes, in pair params, scripts and search
output, passes the number rule that Move and SearchConfig apply too,
linalg._numbers: JSON numbers only, never a bool or string, nor an integer
past a double.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

import numpy as np

from .bases import Basis, MUPair
from .errors import FormatError, InvalidMoveError, ParameterRangeError
from .families import _PARAM_NAMES, FAMILY_IDS, FamilyParams, validate_family_params
from .linalg import _numbers, _quote, format_matrix, parse_matrix

if TYPE_CHECKING:  # annotations only, so reading a pair loads neither module
    from .equivalence import Move
    from .search import ExtensionResult, OrthoGraph


def pair_to_dict(pair: MUPair) -> dict:
    out: dict = {
        "first": format_matrix(pair.first.matrix),
        "second": format_matrix(pair.second.matrix),
        "family": pair.family,
        "params": pair.params.present() if pair.params is not None else None,
    }
    labels = {}
    for member_name, basis in (("first", pair.first), ("second", pair.second)):
        if basis.labels is not None:
            labels[member_name] = [label.name for label in basis.labels]
    if labels:
        out["labels"] = labels
    return out


def pair_from_dict(data: dict) -> MUPair:
    try:
        texts = data["first"], data["second"]
    except KeyError as exc:
        raise FormatError(f"pair JSON is missing key {exc}") from exc
    if not all(isinstance(text, str) for text in texts):
        raise FormatError("pair JSON 'first' and 'second' must be matrix text strings")
    first, second = (parse_matrix(text) for text in texts)
    family = data.get("family")
    if family is not None and family not in FAMILY_IDS:
        raise FormatError(f"pair JSON has family {_quote(str(family))}, expected one of {FAMILY_IDS} or null")
    raw = data.get("params")
    if raw is not None and not isinstance(raw, dict):
        raise FormatError("pair JSON 'params' must be an object or null")
    values = {}
    for name, value in (raw or {}).items():
        if name not in _PARAM_NAMES:
            raise FormatError(f"pair JSON 'params' has name {_quote(name)}, expected one of {_PARAM_NAMES}")
        number = _numbers((value,), (int, float), float)
        if number is None:
            raise FormatError(f"pair JSON 'params' {name!r} must be a JSON number, got {_quote(str(value))}")
        values[name] = number[0]
    params = None if raw is None else FamilyParams(**values)
    try:
        if family is not None:
            validate_family_params(family, params)
        return MUPair(Basis(first), Basis(second), family=family, params=params)
    except ParameterRangeError as exc:
        raise FormatError(f"pair JSON 'params' do not fit its family: {exc}") from exc


def script_to_dict(script: Sequence[Move]) -> dict:
    moves = []
    for move in script:
        fields = {
            "kind": move.kind,
            "member": move.member,
            "perm": None if move.perm is None else [i + 1 for i in move.perm],
            "phases": None if move.phases is None else list(move.phases),
            "matrix": None if move.matrix is None else format_matrix(move.matrix),
        }
        moves.append({key: value for key, value in fields.items() if value is not None})
    return {"moves": moves}


def script_from_dict(data: dict) -> tuple[Move, ...]:
    """The script script_to_dict wrote as data. A move that Move refuses, an
    unknown key or a missing 'moves' list is a FormatError."""
    moves = data.get("moves") if isinstance(data, dict) else None
    if not isinstance(moves, list) or not all(isinstance(m, dict) for m in moves):
        raise FormatError("script JSON must be an object with a 'moves' list of objects")
    try:
        return tuple(_move_from_dict(m) for m in moves)
    except InvalidMoveError as exc:
        raise FormatError(f"script JSON has a bad move: {exc}") from exc


def _move_from_dict(data: dict) -> Move:
    from .equivalence import Move

    fields = dict(data)
    kind, member, text = (fields.pop(key, None) for key in ("kind", "member", "matrix"))
    perm, phases = fields.pop("perm", None), fields.pop("phases", None)
    if fields:
        raise FormatError(f"a script move has unknown keys {_quote(str(sorted(fields)))}")
    for name, values in (("perm", perm), ("phases", phases)):
        if values is not None and (not isinstance(values, list) or _numbers(values, (int, float), float) is None):
            raise FormatError(f"script move {name!r} must be a list of JSON numbers")
    if text is not None and not isinstance(text, str):
        raise FormatError("a script move's 'matrix' must be matrix text")
    perm = None if perm is None else [i - 1 for i in perm]
    return Move(kind, member, perm, phases, None if text is None else parse_matrix(text))


def graph_to_dict(graph: OrthoGraph) -> dict:
    return {
        "num_vectors": graph.num_vectors,
        "edges": [[int(i), int(j)] for i, j in graph.edges],
        "min_abs_overlap": graph.min_abs_overlap,
        "max_abs_overlap": graph.max_abs_overlap,
    }


def extension_result_to_dict(result: ExtensionResult) -> dict:
    vecset = result.vectors
    return {
        "pair": pair_to_dict(vecset.pair),
        "clusters": [
            {"vector": np.asarray(v).view(float).reshape(-1, 2).tolist(), "residual": float(r), "hits": int(h),
             "orbit": int(o)}
            for v, r, h, o in zip(vecset.vectors, vecset.residuals, vecset.hits, vecset.orbits)
        ],
        "group_order": int(vecset.group_order),
        "restarts_run": int(vecset.restarts_run),
        "saturated": bool(vecset.saturated),
        "manifold_warning": bool(vecset.manifold_warning),
        "graph": graph_to_dict(result.graph),
        "max_clique_size": int(result.max_clique_size),
        "extension_basis": None if result.basis is None else format_matrix(result.basis.matrix),
    }


def vectors_from_dict(data: dict) -> tuple[np.ndarray, ...]:
    """The cluster vectors of a serialized search result: equal-length lists of
    [re, im] pairs of JSON numbers. orthogonality_graph checks their norms."""
    try:
        vectors = [c["vector"] for c in data["clusters"]]
        lengths, pairs = set(map(len, vectors)), list(chain.from_iterable(vectors))
        shaped = len(lengths) <= 1 and set(map(len, pairs)) <= {2}
    except (KeyError, TypeError):
        shaped = False
    values = _numbers(chain.from_iterable(pairs), (int, float), float) if shaped else None
    if values is None:
        raise FormatError("vector-set clusters need equal-length lists of [re, im] pairs of JSON numbers")
    return tuple(np.array(values).view(np.complex128).reshape(len(vectors), *lengths))


def dump_json(data: dict) -> str:
    """json.dumps(data, indent=2, sort_keys=True) + "\\n", byte for byte, with
    the TypeError json raises on what it cannot write.

    A list of equal-length lists of exact ints and finite floats, such as the
    [re, im] parts of a vector or the edges of a graph, goes out in one
    %-format of their reprs, which are json's. data must not contain itself
    (json raises ValueError there).
    """
    out: list[str] = []
    _write(data, "\n", out)
    return "".join(out) + "\n"


def _write(o, newline: str, out: list[str]) -> None:
    """Append the text of o to out, with newline (and its indent) between
    lines, checking types in json's order."""
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif o is None or isinstance(o, (int, float)):
        out.append(_scalar_text(o))
    elif not isinstance(o, (list, tuple, dict)):
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
    elif not o:
        out.append("{}" if isinstance(o, dict) else "[]")
    elif isinstance(o, dict) or (table := _table(o, newline)) is None:
        inner, is_dict = newline + "  ", isinstance(o, dict)
        sep = ("{" if is_dict else "[") + inner
        for key, value in sorted(o.items()) if is_dict else enumerate(o):
            out.append(sep + _key_text(key) if is_dict else sep)
            sep = "," + inner
            _write(value, inner, out)
        out.append(newline + ("}" if is_dict else "]"))
    else:
        out.append(table)


def _scalar_text(x: None | int | float) -> str:
    """None, a bool, an int or a float as json writes it."""
    if x is None or x is True or x is False:
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    return "NaN" if x != x else "Infinity" if x == math.inf else "-Infinity" if x == -math.inf else float.__repr__(x)


def _key_text(key) -> str:
    """A dict key as json writes it, with the separator after it."""
    if not (key is None or isinstance(key, (str, int, float))):
        raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
    return encode_basestring_ascii(key if isinstance(key, str) else _scalar_text(key)) + ": "


def _table(rows: list | tuple, newline: str) -> str | None:
    """The text of rows if it is a list of equal-length, non-empty lists of
    exact ints and finite floats; None otherwise."""
    if not set(map(type, rows)) <= {list, tuple} or len(widths := set(map(len, rows))) != 1 or 0 in widths:
        return None
    cells = list(chain.from_iterable(rows))
    if not set(map(type, cells)) <= {int, float}:
        return None
    text = tuple(map(repr, cells))
    if not {"nan", "inf", "-inf"}.isdisjoint(text):
        return None
    inner, cell = newline + "  ", newline + "    "
    row = "[" + cell + ("," + cell).join(["%s"] * len(rows[0])) + inner + "]"
    return ("[" + inner + ("," + inner).join([row] * len(rows)) + newline + "]") % text


def load_json(text: str) -> dict:
    # JSONDecodeError and the integer digit limit are ValueErrors; deep nesting
    # exhausts the recursion limit.
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError("expected a JSON object at the top level")
    return data
