"""Spans recorded by the benchmark around calls into mub6's public functions.

Nothing inside mub6 is instrumented. While a traced round runs, the names
that `mub6.cli` calls (and the `mub6.serialize` functions it reaches through
the module) are swapped for wrappers that record a span per call, and the
originals are put back afterwards. Spans stay in memory and are written out
when the run ends.

A wrapped call made while a span of the same layer is open (for example
`pair_to_dict` inside `extension_result_to_dict`) records nothing, so each
layer's time is counted once per call from the layer above.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass, field

from mub6 import cli, serialize


@dataclass
class Span:
    id: int
    parent: int | None
    point: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    result: object = None  # kept only until the round's follow-up calls

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "point": self.point,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


def _search_attrs(args, result) -> dict:
    hits = result.vectors.hits
    return {
        "restarts": args[1].restarts,
        "accepted": sum(hits),
        "clusters": len(hits),
        "min_hits": min(hits, default=0),
        "edges": len(result.graph.edges),
        "min_abs_overlap": result.graph.min_abs_overlap,
        "max_clique_size": result.max_clique_size,
    }


# (module, layer, name, attribute extractor or None)
_WRAPPED = (
    (cli, "families", "make_family_pair", None),
    (cli, "bases", "is_mu_pair", lambda a, r: {"worst_deviation": float(r.worst_deviation)}),
    (cli, "equivalence", "reduce_P1", lambda a, r: {"moves": len(r[1])}),
    (cli, "equivalence", "reduce_P2", lambda a, r: {"moves": len(r[1])}),
    (cli, "equivalence", "reduce_P3", lambda a, r: {"moves": len(r[1])}),
    (cli, "equivalence", "haagerup_fingerprint", None),
    (cli, "equivalence", "dephase", None),
    (cli, "search", "find_extension_basis", _search_attrs),
    (cli, "search", "orthogonality_graph", None),
    (serialize, "serialize", "load_json", None),
    (serialize, "serialize", "pair_from_dict", None),
    (serialize, "serialize", "vectors_from_dict", None),
    (serialize, "serialize", "pair_to_dict", None),
    (serialize, "serialize", "script_to_dict", None),
    (serialize, "serialize", "graph_to_dict", None),
    (serialize, "serialize", "extension_result_to_dict", None),
    (serialize, "serialize", "dump_json", lambda a, r: {"bytes": len(r.encode("utf-8"))}),
)

_LOAD = {"serialize.load_json", "serialize.pair_from_dict", "serialize.vectors_from_dict"}


class Tracer:
    """Span recorder; `point` tags spans with the chain they belong to."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.point = 0
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), parent, self.point, name, 0.0)
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, layer: str, name: str, fn, attrs):
        def traced(*args, **kwargs):
            if self._stack and self._stack[-1].name.startswith(layer + "."):
                return fn(*args, **kwargs)
            with self.span(f"{layer}.{name}") as sp:
                result = fn(*args, **kwargs)
            sp.result = result
            if attrs is not None:
                sp.attrs.update(attrs(args, result))
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Swap the wrapped names in for the duration of the block."""
        originals = [(module, name, getattr(module, name)) for module, _, name, _ in _WRAPPED]
        try:
            for module, layer, name, attrs in _WRAPPED:
                setattr(module, name, self._wrap(layer, name, getattr(module, name), attrs))
            yield
        finally:
            for module, name, fn in originals:
                setattr(module, name, fn)


def _median(values) -> float:
    """Median of the samples; 0.0 when the workload never entered the layer."""
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer values from the spans of the traced rounds.

    Times are medians per call; serialize times and bytes are medians per
    CLI command that entered the layer; `cli.self_s` is the median time a
    command spends outside the library spans under it (argparse, file I/O).
    """
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)

    def secs(name: str) -> float:
        return _median(sp.seconds for sp in by_name.get(name, ()))

    def attr(name: str, key: str, reduce=_median) -> float:
        return reduce(sp.attrs.get(key) for sp in by_name.get(name, ()))

    searches = by_name.get("search.find_extension_basis", [])
    out = {
        "search.find_extension_basis_s": secs("search.find_extension_basis"),
        "search.s_per_restart": _median(sp.seconds / sp.attrs["restarts"] for sp in searches),
        "search.accept_ratio": _median(sp.attrs["accepted"] / sp.attrs["restarts"] for sp in searches),
        "search.orthogonality_graph_s": secs("search.orthogonality_graph"),
    }
    for key in ("restarts", "accepted", "clusters", "min_hits", "edges",
                "min_abs_overlap", "max_clique_size"):
        out[f"search.{key}"] = attr("search.find_extension_basis", key)

    commands = [sp for sp in spans if sp.name.startswith("cli.")]
    load, dump, written, self_s = [], [], [], []
    for cmd in commands:
        kids = children.get(cmd.id, [])
        ser = [k for k in kids if k.name.startswith("serialize.")]
        if any(k.name in _LOAD for k in ser):
            load.append(sum(k.seconds for k in ser if k.name in _LOAD))
        if any(k.name not in _LOAD for k in ser):
            dump.append(sum(k.seconds for k in ser if k.name not in _LOAD))
            written.append(sum(k.attrs.get("bytes", 0) for k in ser))
        self_s.append(cmd.seconds - sum(k.seconds for k in kids))
    out["serialize.load_s"] = _median(load)
    out["serialize.dump_s"] = _median(dump)
    out["serialize.bytes_out"] = _median(written)
    for command in ("construct", "verify", "reduce", "fingerprint", "search-extend", "ortho-graph"):
        out[f"cli.{command}_s"] = secs(f"cli.{command}")
    out["cli.self_s"] = _median(self_s)

    out["families.make_family_pair_s"] = secs("families.make_family_pair")
    out["bases.is_mu_pair_s"] = secs("bases.is_mu_pair")
    out["bases.worst_deviation"] = attr(
        "bases.is_mu_pair", "worst_deviation", lambda vs: max(vs, default=0.0)
    )
    for name in ("reduce_P1", "reduce_P2", "reduce_P3", "haagerup_fingerprint", "dephase"):
        out[f"equivalence.{name}_s"] = secs(f"equivalence.{name}")
    out["equivalence.script_moves"] = _median(
        sp.attrs["moves"] for name in ("reduce_P1", "reduce_P2", "reduce_P3")
        for sp in by_name.get(f"equivalence.{name}", ())
    )
    return out
