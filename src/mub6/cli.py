"""Command-line interface: construct family pairs, verify MU-ness, replay
reductions, fingerprint Hadamards, and run extension searches.

Exit codes: 0 on success, 1 on domain errors (machine-readable JSON on
stderr), 2 on usage errors. All randomness enters through --seed (default 0).
"""

from __future__ import annotations

import argparse
import sys

from . import serialize
from .equivalence import (
    TransformScript,
    dephase,
    haagerup_fingerprint,
    reduce_P1,
    reduce_P2,
    reduce_P3,
)
from .errors import FormatError, Mub6Error
from .families import FamilyParams, make_family_pair, validate_family_params
from .bases import is_mu_pair
from .linalg import EQ_TOL, parse_matrix
from .search import SearchConfig, find_extension_basis, orthogonality_graph

_PARAM_FLAGS = ("xi", "eta", "zeta", "chi", "sigma", "tau")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mub6",
        description="Mutually unbiased product-basis pairs in dimension six.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--family", required=True, choices=["P0", "P1", "P2", "P3"])
        for name in _PARAM_FLAGS:
            p.add_argument(f"--{name}", type=float, default=None)

    p_construct = sub.add_parser("construct", help="build a family pair as JSON")
    add_family_flags(p_construct)
    p_construct.add_argument("--out", default=None, help="output file (default stdout)")

    p_verify = sub.add_parser("verify", help="check the MU condition of a pair file")
    p_verify.add_argument("--pair", required=True)

    p_reduce = sub.add_parser("reduce", help="reduce a family pair to standard form")
    add_family_flags(p_reduce)
    p_reduce.add_argument("--out", "--emit-pair", dest="out", default=None)
    p_reduce.add_argument("--emit-script", default=None)

    p_fp = sub.add_parser("fingerprint", help="Haagerup fingerprint of a Hadamard")
    source = p_fp.add_mutually_exclusive_group(required=True)
    source.add_argument("--matrix", help="matrix text file")
    source.add_argument("--pair", help="pair JSON file")
    p_fp.add_argument("--member", default="second", choices=["first", "second"])

    p_search = sub.add_parser("search-extend", help="search vectors/bases MU to a pair")
    p_search.add_argument("--pair", required=True)
    p_search.add_argument("--restarts", type=int, default=20000)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--out", default=None)

    p_graph = sub.add_parser("ortho-graph", help="orthogonality graph of a vector set")
    p_graph.add_argument("--vectors", required=True, help="search-extend output JSON")
    p_graph.add_argument("--out", default=None)

    return parser


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text ({exc})") from exc


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _family_params(args: argparse.Namespace) -> FamilyParams:
    return FamilyParams(**{name: getattr(args, name) for name in _PARAM_FLAGS})


def _cmd_construct(args: argparse.Namespace) -> int:
    pair = make_family_pair(args.family, _family_params(args))
    _emit(serialize.dump_json(serialize.pair_to_dict(pair)), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    pair = serialize.pair_from_dict(serialize.load_json(_read(args.pair)))
    check = is_mu_pair(pair.first, pair.second)
    report = {
        "mu_ok": bool(check.ok),
        "worst_deviation": float(check.worst_deviation),
        "worst_index": list(check.worst_index),
        "dim": pair.dim,
    }
    _emit(serialize.dump_json(report), None)
    return 0 if check.ok else 1


def _cmd_reduce(args: argparse.Namespace) -> int:
    family = args.family
    params = validate_family_params(family, _family_params(args))
    if family == "P0":
        pair = make_family_pair("P0", params)
        script = TransformScript()
    elif family == "P1":
        pair, script = reduce_P1(args.xi, args.eta)
    elif family == "P2":
        pair, script = reduce_P2()
    else:
        pair, script = reduce_P3(args.zeta, args.chi, args.sigma, args.tau)
    _emit(serialize.dump_json(serialize.pair_to_dict(pair)), args.out)
    if args.emit_script is not None:
        _emit(serialize.dump_json(serialize.script_to_dict(script)), args.emit_script)
    return 0


def _cmd_fingerprint(args: argparse.Namespace) -> int:
    if args.matrix is not None:
        matrix = parse_matrix(_read(args.matrix))
    else:
        pair = serialize.pair_from_dict(serialize.load_json(_read(args.pair)))
        member = pair.first if args.member == "first" else pair.second
        matrix = member.matrix
    fp = haagerup_fingerprint(matrix)
    dephased, _ = dephase(matrix)
    report = {
        "quantum": fp.quantum,
        "num_classes": len(fp.classes),
        "classes": [
            {"value": [re * fp.quantum, im * fp.quantum], "count": count}
            for (re, im), count in fp.classes
        ],
        "digest": fp.digest(),
        "dephased": bool(abs(dephased - matrix).max() < EQ_TOL),
    }
    _emit(serialize.dump_json(report), None)
    return 0


def _cmd_search_extend(args: argparse.Namespace) -> int:
    pair = serialize.pair_from_dict(serialize.load_json(_read(args.pair)))
    cfg = SearchConfig(restarts=args.restarts, master_seed=args.seed)
    result = find_extension_basis(pair, cfg)
    _emit(serialize.dump_json(serialize.extension_result_to_dict(result)), args.out)
    return 0


def _cmd_ortho_graph(args: argparse.Namespace) -> int:
    vectors = serialize.vectors_from_dict(serialize.load_json(_read(args.vectors)))
    graph = orthogonality_graph(vectors)
    _emit(serialize.dump_json(serialize.graph_to_dict(graph)), args.out)
    return 0


_HANDLERS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "reduce": _cmd_reduce,
    "fingerprint": _cmd_fingerprint,
    "search-extend": _cmd_search_extend,
    "ortho-graph": _cmd_ortho_graph,
}


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except Mub6Error as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(serialize.dump_json(error))
        return 1
    except OSError as exc:
        error = {"error": "IOError", "message": str(exc)}
        sys.stderr.write(serialize.dump_json(error))
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
