"""The benchmark's workloads: inputs drawn from the seed, the chains of mub6
CLI commands they run, and the reference checks on what those commands wrote.

A workload runs in rounds. A round is a list of points, and a point is one
chain of `mub6` commands on one generated input (a family point and its
parameters). Inputs are drawn before a round is timed; checks read the
output files after it.

Why these three (see NOTES.md):
- s6_isolated: the 20k-restart search on {I, S6}, where about 9% of restarts
  never converge and 90 clusters come out of ~18k accepted solutions, with an
  empty orthogonality graph. Solver and clustering changes show here.
- fourier_extend: reduce -> 6k-restart search -> ortho-graph on P0 and on
  seeded P1/P3 points. Every restart converges and the graph has 144-300
  edges, so graph, clique and vector-file reading do real work.
- catalogue_sweep: construct -> verify -> reduce -> fingerprint on seeded
  points cycling through P0..P3, with no search. Families, equivalence,
  bases, serialize and cli cost show here.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

from mub6.bases import is_mu_pair
from mub6.linalg import parse_matrix
from mub6.serialize import pair_from_dict

TWO_PI = 2.0 * math.pi
# Frozen acceptance constant: min |<u|v>| over the 90 vectors MU to {I, S6}.
S6_MIN_OVERLAP = 0.15450850
MU_TOL = 1e-9


@dataclass
class Point:
    """One chain of CLI commands on one input, and what each command did."""

    family: str
    argvs: list[list[str]]
    files: dict[str, str]
    params: dict[str, float] = field(default_factory=dict)
    ms: float = 0.0  # wall time of the chain
    # (exit code, captured stdout, captured stderr) per command run
    results: list[tuple[int, str, str]] = field(default_factory=list)


def _angle(rng: random.Random, hi: float, open_low: bool) -> float:
    """Uniform draw in [0, hi), or in (0, hi) when open_low."""
    while True:
        x = rng.uniform(0.0, hi)
        if x < hi and (x > 0.0 or not open_low):
            return x


def draw_params(rng: random.Random, family: str) -> dict[str, float]:
    """Family angles inside the ranges the constructors accept."""
    if family == "P1":
        return {"xi": _angle(rng, TWO_PI, False), "eta": _angle(rng, TWO_PI, True)}
    if family == "P3":
        return {
            "zeta": _angle(rng, TWO_PI, False),
            "chi": _angle(rng, TWO_PI, False),
            "sigma": _angle(rng, math.pi, True),
            "tau": _angle(rng, math.pi, True),
        }
    return {}


def _flags(params: dict[str, float]) -> list[str]:
    out = []
    for name, value in params.items():
        out += [f"--{name}", repr(value)]
    return out


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _search_digest(data: dict) -> dict:
    hits = [c["hits"] for c in data["clusters"]]
    return {
        "clusters": len(hits),
        "accepted": sum(hits),
        "min_hits": min(hits, default=0),
        "min_abs_overlap": data["graph"]["min_abs_overlap"],
        "edges": len(data["graph"]["edges"]),
        "max_clique_size": data["max_clique_size"],
    }


class S6Isolated:
    """search-extend on the {I, S6} pair from `reduce --family P2`."""

    name = "s6_isolated"

    def __init__(self, tmp: str, smoke: bool) -> None:
        self.tmp = tmp
        self.restarts = 1000 if smoke else 20000
        self.pair = os.path.join(tmp, "s6_pair.json")

    def prepare(self) -> list[list[str]]:
        return [["reduce", "--family", "P2", "--out", self.pair]]

    def round(self, rng: random.Random, k: int) -> list[Point]:
        out = os.path.join(self.tmp, "s6_vectors.json")
        argv = ["search-extend", "--pair", self.pair, "--restarts", str(self.restarts),
                "--seed", str(rng.randrange(2**31)), "--out", out]
        return [Point("P2", [argv], {"vectors": out})]

    def check(self, point: Point) -> tuple[dict, list[str]]:
        digest = _search_digest(_load(point.files["vectors"]))
        problems = []
        if digest["clusters"] != 90:
            problems.append(f"{digest['clusters']} clusters, expected 90")
        if digest["edges"] != 0:
            problems.append(f"{digest['edges']} edges, expected 0")
        overlap = digest["min_abs_overlap"]
        if overlap is None or abs(overlap - S6_MIN_OVERLAP) >= 1e-6:
            problems.append(f"min overlap {overlap}, expected {S6_MIN_OVERLAP}")
        if digest["max_clique_size"] != 1:
            problems.append(f"clique size {digest['max_clique_size']}, expected 1")
        return digest, problems


class FourierExtend:
    """reduce -> search-extend -> ortho-graph on one pair per round, cycling
    through P0 and seeded P1 and P3 points."""

    name = "fourier_extend"

    def __init__(self, tmp: str, smoke: bool) -> None:
        self.tmp = tmp
        self.restarts = 1000 if smoke else 6000

    def prepare(self) -> list[list[str]]:
        return []

    def round(self, rng: random.Random, k: int) -> list[Point]:
        family = ("P0", "P1", "P3")[k % 3]
        params = draw_params(rng, family)
        files = {name: os.path.join(self.tmp, f"fourier_{name}.json")
                 for name in ("pair", "vectors", "graph")}
        argvs = [
            ["reduce", "--family", family, *_flags(params), "--out", files["pair"]],
            ["search-extend", "--pair", files["pair"], "--restarts", str(self.restarts),
             "--seed", str(rng.randrange(2**31)), "--out", files["vectors"]],
            ["ortho-graph", "--vectors", files["vectors"], "--out", files["graph"]],
        ]
        return [Point(family, argvs, files, params)]

    def check(self, point: Point) -> tuple[dict, list[str]]:
        data = _load(point.files["vectors"])
        digest = _search_digest(data)
        problems = []
        if digest["clusters"] != 48:
            problems.append(f"{digest['clusters']} clusters, expected 48")
        if digest["max_clique_size"] != 6:
            problems.append(f"clique size {digest['max_clique_size']}, expected 6")
        if point.family == "P0" and digest["edges"] != 300:
            problems.append(f"{digest['edges']} edges, expected 300 for P0")
        graph = _load(point.files["graph"])
        if len(graph["edges"]) != digest["edges"]:
            problems.append(f"ortho-graph found {len(graph['edges'])} edges, search {digest['edges']}")
        if data["extension_basis"] is None:
            problems.append("no extension basis")
        else:
            basis = parse_matrix(data["extension_basis"])
            pair = pair_from_dict(_load(point.files["pair"]))
            for member in (pair.first, pair.second):
                mu = is_mu_pair(basis, member)
                if not mu.ok:
                    problems.append(f"basis not MU to a member (deviation {mu.worst_deviation:.3e})")
        return digest, problems


class CatalogueSweep:
    """construct -> verify -> reduce --emit-script -> fingerprint per point."""

    name = "catalogue_sweep"

    def __init__(self, tmp: str, smoke: bool) -> None:
        self.tmp = tmp
        self.sweep = 8 if smoke else 128
        self._p2_digest: str | None = None

    def prepare(self) -> list[list[str]]:
        return []

    def round(self, rng: random.Random, k: int) -> list[Point]:
        points = []
        for i in range(self.sweep):
            family = ("P0", "P1", "P2", "P3")[i % 4]
            params = draw_params(rng, family)
            files = {name: os.path.join(self.tmp, f"cat_{i}_{name}.json")
                     for name in ("pair", "reduced", "script")}
            argvs = [
                ["construct", "--family", family, *_flags(params), "--out", files["pair"]],
                ["verify", "--pair", files["pair"]],
                ["reduce", "--family", family, *_flags(params), "--out", files["reduced"],
                 "--emit-script", files["script"]],
                ["fingerprint", "--pair", files["reduced"], "--member", "second"],
            ]
            points.append(Point(family, argvs, files, params))
        return points

    def check(self, point: Point) -> tuple[dict, list[str]]:
        verify = json.loads(point.results[1][1])
        fingerprint = json.loads(point.results[3][1])
        script = _load(point.files["script"])
        reduced = pair_from_dict(_load(point.files["reduced"]))
        digest = {
            "worst_deviation": verify["worst_deviation"],
            "fingerprint": fingerprint["digest"],
            "moves": len(script["moves"]),
        }
        problems = []
        if not verify["mu_ok"] or not verify["worst_deviation"] < MU_TOL:
            problems.append(f"verify deviation {verify['worst_deviation']}")
        if point.family == "P2":
            if self._p2_digest is None:
                self._p2_digest = fingerprint["digest"]
            elif fingerprint["digest"] != self._p2_digest:
                problems.append("S6 fingerprint digest differs between P2 points")
        mu = is_mu_pair(reduced.first, reduced.second)
        if not mu.ok:
            problems.append(f"reduced pair not MU (deviation {mu.worst_deviation:.3e})")
        first_dev = float(np.abs(reduced.first.matrix - np.eye(reduced.dim)).max())
        if first_dev >= MU_TOL:
            problems.append(f"reduced first member is not I (deviation {first_dev:.3e})")
        return digest, problems


WORKLOADS = {cls.name: cls for cls in (S6Isolated, FourierExtend, CatalogueSweep)}
