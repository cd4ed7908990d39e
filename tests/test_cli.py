import argparse
import ast
import errno
import importlib
import json
import os
import random
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import mub6
from mub6 import hw_eigenbasis, make_Ftilde, parse_matrix, format_matrix
from mub6.cli import _build_parser, _command_parser, run
from mub6.serialize import dump_json, pair_to_dict, load_json
from mub6.bases import Basis, MUPair


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_and_verify_round_trip(tmp_path, capsys):
    pair_file = tmp_path / "pair.json"
    code, out, err = run_cli(
        capsys, "construct", "--family", "P1", "--xi", "1.0", "--eta", "2.0",
        "--out", str(pair_file),
    )
    assert code == 0 and err == ""
    data = json.loads(pair_file.read_text())
    assert data["family"] == "P1"
    assert data["params"] == {"xi": 1.0, "eta": 2.0}
    second = parse_matrix(data["second"])
    assert np.array_equal(second, make_Ftilde(1.0, 2.0).T)

    code, out, err = run_cli(capsys, "verify", "--pair", str(pair_file))
    assert code == 0
    report = json.loads(out)
    assert report["mu_ok"] is True
    assert report["worst_deviation"] < 1e-10


def test_construct_p0_stdout(capsys):
    code, out, err = run_cli(capsys, "construct", "--family", "P0")
    assert code == 0
    data = json.loads(out)
    assert np.array_equal(parse_matrix(data["second"]), make_Ftilde(0.0, 0.0))


def test_construct_rejects_bad_params(capsys):
    code, out, err = run_cli(capsys, "construct", "--family", "P1", "--xi", "0.0", "--eta", "0.0")
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "ParameterRangeError"


def test_reduce_rejects_other_families_angles(capsys):
    p3 = ["--zeta", "0.3", "--chi", "1.4", "--sigma", "0.9", "--tau", "2.2"]
    for argv in (
        ["--family", "P2", "--xi", "1.0"],
        ["--family", "P1", "--xi", "1", "--eta", "2", "--zeta", "3"],
        ["--family", "P3", *p3, "--xi", "5"],
    ):
        code, out, err = run_cli(capsys, "reduce", *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "ParameterRangeError"


def test_usage_errors_exit_2(capsys):
    code, _, _ = run_cli(capsys, "construct", "--family", "P7")
    assert code == 2
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 2
    code, _, _ = run_cli(capsys, "construct", "--family", "P0", "--bogus-flag", "1")
    assert code == 2
    # fingerprint reads exactly one of --matrix and --pair.
    code, _, _ = run_cli(capsys, "fingerprint")
    assert code == 2
    code, _, _ = run_cli(capsys, "fingerprint", "--matrix", "h.txt", "--pair", "p.json")
    assert code == 2


_COMMAND_LIST = "{construct,verify,reduce,fingerprint,search-extend,ortho-graph}"

_UNKNOWN_FLAG = [
    ["construct", "--family", "P0", "--bogus", "1"],
    ["verify", "--pair", "p.json", "--bogus", "1"],
    ["reduce", "--family", "P0", "--bogus", "1"],
    ["fingerprint", "--pair", "p.json", "--bogus", "1"],
    ["search-extend", "--pair", "p.json", "--bogus", "1"],
    ["ortho-graph", "--vectors", "v.json", "--bogus", "1"],
]


def _full_parser_result(capsys, argv):
    """Exit code, stdout and stderr of a parser built with every subcommand."""
    with pytest.raises(SystemExit) as exc:
        _build_parser().parse_args(argv)
    captured = capsys.readouterr()
    return int(exc.value.code or 0), captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        *([command, "--help"] for command in _COMMAND_LIST.strip("{}").split(",")),
        *_UNKNOWN_FLAG,
        ["verify"],
        ["construct", "--family", "P7"],
        ["fingerprint"],
        ["fingerprint", "--matrix", "h.txt", "--pair", "p.json"],
        ["no-such-command"],
        [],
    ],
    ids=" ".join,
)
def test_cli_text_matches_full_parser(capsys, argv):
    # run() builds only the invoked command's subparser, and reuses it on the
    # next call; what it prints must not tell, cold or warm.
    expected = _full_parser_result(capsys, argv)
    _command_parser.cache_clear()
    for _ in range(2):
        assert run_cli(capsys, *argv) == expected
    code, out, err = expected
    if argv and argv[-1] == "--help":
        assert code == 0 and out.startswith("usage: mub6") and err == ""
    else:
        assert code == 2 and out == "" and "error:" in err
    if argv in _UNKNOWN_FLAG:
        assert "unrecognized arguments: --bogus 1" in err
        assert _COMMAND_LIST in err
    # argparse names the positional by its metavar when one is set; with
    # every subcommand built it stays `command`.
    if argv == []:
        assert err.endswith("error: the following arguments are required: command\n")
    if argv == ["no-such-command"]:
        assert "error: argument command: invalid choice: 'no-such-command'" in err


def test_help_wraps_to_the_width_at_each_call(monkeypatch, capsys):
    # argparse reads the terminal width when it prints, so a warm parser
    # wraps as a freshly built one does at every width.
    _command_parser.cache_clear()
    helps = []
    for columns in ("60", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        helps.append(run_cli(capsys, "construct", "--help"))
        assert helps[-1] == _full_parser_result(capsys, ["construct", "--help"])
    assert helps[0] != helps[1]
    assert max(map(len, helps[0][1].splitlines())) <= 60 < max(map(len, helps[1][1].splitlines()))


def test_second_call_builds_no_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    _command_parser.cache_clear()
    for argv in (["--family", "P0"], ["--family", "P1", "--xi", "0.7", "--eta", "1.3"], ["--family", "P2"]):
        assert run_cli(capsys, "construct", *argv)[0] == 0
    assert built == ["mub6 construct"]
    assert _command_parser.cache_info().hits == 2


@pytest.mark.parametrize(
    "first, second",
    [
        (["construct", "--family", "P1", "--xi", "0.7", "--eta", "1.3"], ["construct", "--family", "P0"]),
        (["reduce", "--family", "P1", "--xi", "0.7", "--eta", "1.3", "--emit-script", "{s}"],
         ["reduce", "--family", "P1", "--xi", "0.7", "--eta", "1.3"]),
        (["fingerprint", "--matrix", "{m}"], ["fingerprint", "--pair", "{p}"]),
    ],
    ids=["construct", "reduce", "fingerprint"],
)
def test_warm_parser_carries_nothing_over(tmp_path, capsys, first, second):
    script, pair, matrix = tmp_path / "s.json", tmp_path / "s6.json", tmp_path / "s6.txt"
    assert run(["reduce", "--family", "P2", "--out", str(pair)]) == 0
    matrix.write_text(json.loads(pair.read_text())["second"])
    first, second = ([a.format(s=script, m=matrix, p=pair) for a in argv] for argv in (first, second))
    expected = []
    for argv in (first, second):
        _command_parser.cache_clear()
        expected.append(run_cli(capsys, *argv))
        assert expected[-1][0] == 0
    _command_parser.cache_clear()
    assert run_cli(capsys, *first) == expected[0]
    # Only the first call names s.json; the second must not write it.
    script.write_bytes(b"untouched")
    assert run_cli(capsys, *second) == expected[1]
    assert _command_parser.cache_info().hits == 1
    assert script.read_bytes() == b"untouched"


def _fresh_python(code):
    """Standard output of a fresh interpreter that runs `code` with this mub6."""
    src = os.path.dirname(os.path.dirname(mub6.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def _loads_hashlib(statement):
    """Whether a fresh interpreter that runs `statement` has hashlib loaded."""
    return _fresh_python(f"import sys\n{statement}\nprint('hashlib' in sys.modules)").strip() == "True"


def test_import_builds_no_parser_and_a_command_builds_one():
    out = _fresh_python(
        "import argparse, os\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import mub6.cli\n"
        "print(built)\n"
        "mub6.cli.run(['construct', '--family', 'P0', '--out', os.devnull])\n"
        "print(built)\n"
    )
    assert out.splitlines() == ["[]", "['mub6 construct']"]


def test_cli_import_leaves_hashlib_unloaded():
    # Only `fingerprint` needs sha256; HadamardFingerprint.digest imports it.
    if _loads_hashlib("import numpy"):
        pytest.skip("numpy alone loads hashlib here")
    assert not _loads_hashlib("import mub6.cli")


def _loaded_mub6(statement):
    """The mub6 modules a fresh interpreter has loaded after `statement`."""
    out = _fresh_python(f"import sys\n{statement}\n"
                        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'mub6'))")
    return set(out.split())


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    """A P0 pair, the S6 pair and a small P0 search result, as files."""
    path = tmp_path_factory.mktemp("inputs")
    files = {name: str(path / f"{name}.json") for name in ("p0", "s6", "v")}
    assert run(["construct", "--family", "P0", "--out", files["p0"]]) == 0
    assert run(["reduce", "--family", "P2", "--out", files["s6"]]) == 0
    assert run(["search-extend", "--pair", files["p0"], "--restarts", "64", "--out", files["v"]]) == 0
    return files


def test_cli_import_loads_no_library_module():
    assert _loaded_mub6("import mub6.cli") == {"mub6", "mub6.cli", "mub6.errors"}


# command and arguments -> the library modules one call of it must not load.
_UNLOADED = {
    ("construct", "--family", "P0"): {"mub6.search", "mub6.equivalence"},
    ("verify", "--pair", "{p0}"): {"mub6.search", "mub6.equivalence"},
    ("reduce", "--family", "P2", "--emit-script", os.devnull): {"mub6.search"},
    ("fingerprint", "--pair", "{s6}"): {"mub6.search"},
    ("search-extend", "--pair", "{s6}", "--restarts", "64"): {"mub6.equivalence"},
    ("ortho-graph", "--vectors", "{v}"): {"mub6.equivalence"},
}


@pytest.mark.parametrize("argv, unloaded", _UNLOADED.items(), ids=[argv[0] for argv in _UNLOADED])
def test_a_command_loads_only_the_modules_it_uses(command_inputs, argv, unloaded):
    argv = [a.format(**command_inputs) for a in argv]
    loaded = _loaded_mub6(
        "import contextlib, io, mub6.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert mub6.cli.run({argv!r}) == 0\n"
    )
    assert "mub6.serialize" in loaded and not loaded & unloaded, loaded


def _traced_cli_names():
    """Home module of each name the benchmark's tracer swaps on mub6.cli, as
    its _WRAPPED table of (module, layer, name, extractor) rows lists them."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    table = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign) and node.targets[0].id == "_WRAPPED")
    return {row.elts[2].value: row.elts[1].value for row in table.elts if row.elts[0].id == "cli"}


# Each library name the benchmark's tracer swaps on mub6.cli -> a command that calls it.
_CALLED_BY = {
    "make_family_pair": ["construct", "--family", "P0"],
    "is_mu_pair": ["verify", "--pair", "{p0}"],
    "reduce_P1": ["reduce", "--family", "P1", "--xi", "0.7", "--eta", "1.3"],
    "reduce_P2": ["reduce", "--family", "P2"],
    "reduce_P3": ["reduce", "--family", "P3", "--zeta", "0.4", "--chi", "1.1", "--sigma", "0.9", "--tau", "2.0"],
    "haagerup_fingerprint": ["fingerprint", "--pair", "{s6}"],
    "dephase": ["fingerprint", "--pair", "{s6}"],
    "find_extension_basis": ["search-extend", "--pair", "{s6}", "--restarts", "64"],
    "orthogonality_graph": ["ortho-graph", "--vectors", "{v}"],
}


def test_the_traced_names_are_the_called_names():
    assert set(_traced_cli_names()) == set(_CALLED_BY)


@pytest.mark.parametrize("name", _CALLED_BY)
def test_a_swapped_cli_name_reaches_the_handler(monkeypatch, capsys, command_inputs, name):
    # Unbound, as in a fresh process, the name resolves to the library object.
    monkeypatch.delitem(vars(mub6.cli), name, raising=False)
    original = getattr(mub6.cli, name)
    assert original is getattr(importlib.import_module(f"mub6.{_traced_cli_names()[name]}"), name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(mub6.cli, name, spy)
    _command_parser.cache_clear()  # the first parser of a process binds names; it must keep the spy
    assert run_cli(capsys, *(a.format(**command_inputs) for a in _CALLED_BY[name]))[0] == 0
    assert len(calls) == 1


def test_search_extend_reports_memory_error(tmp_path, capsys):
    # A cap of 10^15 restarts allocates nothing up front, and S6 saturates
    # long before it. At 10^18 and 10^20 the solver's state for a search that
    # ran to the cap would not even fit numpy's index type in bytes, so the
    # cap is refused before any search.
    pair_file = tmp_path / "s6.json"
    assert run_cli(capsys, "reduce", "--family", "P2", "--out", str(pair_file))[0] == 0
    code, out, _ = run_cli(capsys, "search-extend", "--pair", str(pair_file), "--restarts", str(10**15))
    data = json.loads(out)
    assert code == 0 and data["saturated"] and data["restarts_run"] < 10**15
    assert len(data["clusters"]) == 90
    for restarts in (10**18, 10**20):
        code, out, err = run_cli(
            capsys, "search-extend", "--pair", str(pair_file), "--restarts", str(restarts)
        )
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "MemoryError"
        assert payload["message"]


def test_verify_rejects_non_mu_pair(tmp_path, capsys):
    eye = format_matrix(np.eye(6))
    bad = {"first": eye, "second": eye, "family": None, "params": None}
    f = tmp_path / "bad.json"
    f.write_text(dump_json(bad))
    code, out, err = run_cli(capsys, "verify", "--pair", str(f))
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "NotMUPairError"


def test_verify_rejects_huge_entries_with_one_json_object(tmp_path, capsys):
    # 1e200 * I overflows a Gram product; the suite turns the RuntimeWarning
    # that would print ahead of the JSON into an error.
    huge = {
        "first": format_matrix(1e200 * np.eye(6)), "second": format_matrix(np.eye(6)),
        "family": None, "params": None,
    }
    f = tmp_path / "huge.json"
    f.write_text(dump_json(huge))
    code, out, err = run_cli(capsys, "verify", "--pair", str(f))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "NotABasisError"


def test_verify_and_fingerprint_reject_wrong_shapes(tmp_path, capsys):
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    code, out, err = run_cli(capsys, "verify", "--pair", str(listed))
    assert (code, out, json.loads(err)["error"]) == (1, "", "FormatError")
    rect = tmp_path / "rect.txt"
    rect.write_text(format_matrix(np.ones((2, 3)) / np.sqrt(2)))
    code, out, err = run_cli(capsys, "fingerprint", "--matrix", str(rect))
    assert (code, out, json.loads(err)["error"]) == (1, "", "NotHadamardError")


def test_verify_missing_file(capsys):
    code, out, err = run_cli(capsys, "verify", "--pair", "/does/not/exist.json")
    assert code == 1
    assert json.loads(err)["error"] == "IOError"


# Every command that writes files; {0} and {1} are its output paths.
_WRITERS = {
    "construct": ["construct", "--family", "P1", "--xi", "0.7", "--eta", "1.3", "--out", "{0}"],
    "reduce": [
        "reduce", "--family", "P3", "--zeta", "0.4", "--chi", "1.1", "--sigma", "0.9", "--tau", "2.0",
        "--out", "{0}", "--emit-script", "{1}",
    ],
    "search-extend": ["search-extend", "--pair", "{pair}", "--restarts", "400", "--out", "{0}"],
    "ortho-graph": ["ortho-graph", "--vectors", "{vectors}", "--out", "{0}"],
}
_JUNK = bytes(range(256)) * 400


@pytest.mark.parametrize("command", list(_WRITERS))
def test_out_over_a_longer_file_matches_a_fresh_write(tmp_path, capsys, command):
    pair = tmp_path / "pair3.json"
    pair.write_text(dump_json(pair_to_dict(MUPair(Basis(np.eye(3, dtype=complex)), hw_eigenbasis(3, "x")))))
    vectors = tmp_path / "vectors.json"
    assert run(["search-extend", "--pair", str(pair), "--restarts", "400", "--out", str(vectors)]) == 0
    argv = _WRITERS[command]
    written = {}
    for name in ("fresh", "over"):
        outs = [tmp_path / f"{name}{i}.json" for i in range(argv.count("{0}") + argv.count("{1}"))]
        if name == "over":
            for path in outs:
                path.write_bytes(_JUNK)
        code, out, err = run_cli(capsys, *(a.format(*outs, pair=pair, vectors=vectors) for a in argv))
        assert (code, out, err) == (0, "", "")
        written[name] = [path.read_bytes() for path in outs]
    assert written["over"] == written["fresh"]
    assert all(0 < len(data) < len(_JUNK) for data in written["fresh"])


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
def test_out_to_dev_null(capsys):
    # /dev/null is written but not cut to length: ftruncate fails on it.
    assert run_cli(capsys, "construct", "--family", "P0", "--out", "/dev/null") == (0, "", "")


def test_out_keeps_file_modes_and_follows_symlinks(tmp_path, capsys):
    old_umask = os.umask(0o022)
    try:
        assert run_cli(capsys, "construct", "--family", "P0", "--out", str(tmp_path / "new.json"))[0] == 0
    finally:
        os.umask(old_umask)
    assert (tmp_path / "new.json").stat().st_mode & 0o777 == 0o644
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_bytes(_JUNK)
    target.chmod(0o600)
    link.symlink_to(target)
    assert run_cli(capsys, "construct", "--family", "P0", "--out", str(link))[0] == 0
    assert link.is_symlink()
    assert target.read_bytes() == (tmp_path / "new.json").read_bytes()
    assert target.stat().st_mode & 0o777 == 0o600


def test_out_to_a_directory_or_a_missing_directory(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "out.json"
    for path, errno_ in ((tmp_path, errno.EISDIR), (missing, errno.ENOENT)):
        code, out, err = run_cli(capsys, "construct", "--family", "P0", "--out", str(path))
        assert (code, out) == (1, "")
        message = str(OSError(errno_, os.strerror(errno_), str(path)))
        assert json.loads(err) == {"error": "IOError", "message": message}
    assert not missing.parent.exists()


def test_reduce_p2_emits_pair_and_script(tmp_path, capsys):
    pair_file = tmp_path / "out.json"
    script_file = tmp_path / "script.json"
    code, out, err = run_cli(
        capsys, "reduce", "--family", "P2",
        "--emit-pair", str(pair_file), "--emit-script", str(script_file),
    )
    assert code == 0
    pair_data = json.loads(pair_file.read_text())
    first = parse_matrix(pair_data["first"])
    second = parse_matrix(pair_data["second"])
    assert np.abs(first - np.eye(6)).max() < 1e-10
    assert np.abs(np.abs(second) - 1 / np.sqrt(6)).max() < 1e-10
    script_data = json.loads(script_file.read_text())
    assert any(m["kind"] == "left-unitary" for m in script_data["moves"])
    for move in script_data["moves"]:
        if "perm" in move:
            assert sorted(move["perm"]) == [1, 2, 3, 4, 5, 6]


_FAMILY_ARGS = [
    ["P0"], ["P1", "--xi", "0.7", "--eta", "1.3"], ["P2"],
    ["P3", "--zeta", "0.4", "--chi", "1.1", "--sigma", "0.9", "--tau", "2.0"],
]


@pytest.mark.parametrize("family_args", _FAMILY_ARGS)
def test_emitted_script_replays_to_reduced_pair(tmp_path, capsys, family_args):
    # The script reader takes every script `reduce` writes, writes it back
    # unchanged, and replaying it on the `construct` output gives the `reduce`
    # output bit for bit.
    from mub6 import apply_script
    from mub6.serialize import pair_from_dict, script_from_dict, script_to_dict

    files = {name: tmp_path / f"{name}.json" for name in ("pair", "reduced", "script")}
    assert run_cli(capsys, "construct", "--family", *family_args, "--out", str(files["pair"]))[0] == 0
    code, _, _ = run_cli(
        capsys, "reduce", "--family", *family_args,
        "--out", str(files["reduced"]), "--emit-script", str(files["script"]),
    )
    assert code == 0
    pair, reduced = (pair_from_dict(json.loads(files[k].read_text())) for k in ("pair", "reduced"))
    data = json.loads(files["script"].read_text())
    script = script_from_dict(data)
    assert script_to_dict(script) == data
    out = apply_script(pair, script)
    assert out.first.matrix.tobytes() == reduced.first.matrix.tobytes()
    assert out.second.matrix.tobytes() == reduced.second.matrix.tobytes()


def test_reduce_p3_matches_library(tmp_path, capsys):
    args = dict(zeta=0.3, chi=1.4, sigma=0.9, tau=2.2)
    pair_file = tmp_path / "out.json"
    code, _, _ = run_cli(
        capsys, "reduce", "--family", "P3",
        "--zeta", str(args["zeta"]), "--chi", str(args["chi"]),
        "--sigma", str(args["sigma"]), "--tau", str(args["tau"]),
        "--out", str(pair_file),
    )
    assert code == 0
    from mub6 import reduce_P3

    expected, _ = reduce_P3(**args)
    got = parse_matrix(json.loads(pair_file.read_text())["second"])
    assert np.array_equal(got, expected.second.matrix)


def test_fingerprint_distinguishes_s6_from_fourier(tmp_path, capsys):
    from mub6 import reduce_P2, fourier_family

    s6_file = tmp_path / "s6.txt"
    f_file = tmp_path / "f.txt"
    s6_file.write_text(format_matrix(reduce_P2()[0].second.matrix))
    f_file.write_text(format_matrix(fourier_family(0.0, 0.0)))

    code, out1, _ = run_cli(capsys, "fingerprint", "--matrix", str(s6_file))
    assert code == 0
    code, out2, _ = run_cli(capsys, "fingerprint", "--matrix", str(f_file))
    assert code == 0
    assert json.loads(out1)["digest"] != json.loads(out2)["digest"]


def test_fingerprint_of_pair_member(tmp_path, capsys):
    pair_file = tmp_path / "pair.json"
    run_cli(capsys, "construct", "--family", "P0", "--out", str(pair_file))
    code, out, _ = run_cli(capsys, "fingerprint", "--pair", str(pair_file), "--member", "second")
    assert code == 0
    assert json.loads(out)["num_classes"] >= 2


def test_search_extend_and_ortho_graph(tmp_path, capsys):
    # A dimension-3 pair keeps the CLI path fast.
    pair = MUPair(Basis(np.eye(3, dtype=complex)), hw_eigenbasis(3, "x"))
    pair_file = tmp_path / "pair3.json"
    pair_file.write_text(dump_json(pair_to_dict(pair)))
    out_file = tmp_path / "vectors.json"
    code, _, _ = run_cli(
        capsys, "search-extend", "--pair", str(pair_file),
        "--restarts", "400", "--seed", "0", "--out", str(out_file),
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert len(data["clusters"]) == 6
    assert data["extension_basis"] is not None
    assert data["max_clique_size"] == 3
    assert len(data["graph"]["edges"]) == 6
    assert all(c["residual"] <= 1e-20 for c in data["clusters"])
    # {I, F3} has 36 symmetries: its first round, of 128 restarts, leaves
    # every orbit with 16 hits, and the search stops there.
    assert (data["restarts_run"], data["saturated"], data["group_order"]) == (128, True, 36)
    assert sum(c["hits"] for c in data["clusters"]) <= 128

    code, out, _ = run_cli(capsys, "ortho-graph", "--vectors", str(out_file))
    assert code == 0
    graph = json.loads(out)
    assert graph["num_vectors"] == 6
    assert len(graph["edges"]) == 6


def test_search_extend_rejects_bad_budget(tmp_path, capsys):
    pair = MUPair(hw_eigenbasis(2, "z"), hw_eigenbasis(2, "x"))
    pair_file = tmp_path / "pair2.json"
    pair_file.write_text(dump_json(pair_to_dict(pair)))
    for flag, value in (("--restarts", "0"), ("--restarts", "-5"), ("--seed", "-1")):
        code, out, err = run_cli(capsys, "search-extend", "--pair", str(pair_file), flag, value)
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ParameterRangeError"
        assert payload["message"]


def test_search_extend_deterministic(tmp_path, capsys):
    pair = MUPair(hw_eigenbasis(2, "z"), hw_eigenbasis(2, "x"))
    pair_file = tmp_path / "pair2.json"
    pair_file.write_text(dump_json(pair_to_dict(pair)))
    code, out1, _ = run_cli(
        capsys, "search-extend", "--pair", str(pair_file), "--restarts", "64", "--seed", "7"
    )
    assert code == 0
    code, out2, _ = run_cli(
        capsys, "search-extend", "--pair", str(pair_file), "--restarts", "64", "--seed", "7"
    )
    assert code == 0
    assert out1 == out2


def test_search_extend_keeps_empty_params(tmp_path, capsys):
    # reduce --family P0 writes "params": {}; the pair embedded in the search
    # output must say the same, not null.
    pair_file = tmp_path / "p0.json"
    out_file = tmp_path / "vectors.json"
    assert run_cli(capsys, "reduce", "--family", "P0", "--out", str(pair_file))[0] == 0
    assert json.loads(pair_file.read_text())["params"] == {}
    code, _, _ = run_cli(
        capsys, "search-extend", "--pair", str(pair_file), "--restarts", "20",
        "--out", str(out_file),
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["pair"]["params"] == {}
    # 20 restarts leave some of the 48 clusters with a single hit.
    assert (data["restarts_run"], data["saturated"]) == (20, False)


def test_pair_json_round_trip_matches_memory(tmp_path, capsys):
    # construct -> serialize -> parse -> verify equals the in-memory check.
    from mub6 import make_family_pair, FamilyParams, is_mu_pair
    from mub6.serialize import pair_from_dict

    pair = make_family_pair("P3", FamilyParams(zeta=0.4, chi=2.0, sigma=1.2, tau=0.8))
    round_tripped = pair_from_dict(load_json(dump_json(pair_to_dict(pair))))
    assert np.array_equal(round_tripped.first.matrix, pair.first.matrix)
    assert np.array_equal(round_tripped.second.matrix, pair.second.matrix)
    mem = is_mu_pair(pair.first, pair.second)
    disk = is_mu_pair(round_tripped.first, round_tripped.second)
    assert mem.worst_deviation == disk.worst_deviation


@pytest.mark.parametrize(
    "patch",
    [
        {"params": {"bogus": 1.0}},
        {"params": {"xi": "not a number"}},
        {"params": "xi"},
        {"params": [0.5]},
        {"family": "P9"},
        {"first": 5},
        {"second": None},
        {"first": ["6 6"]},
        {"params": {"xi": 10**400}},
        {"family": "P9" * 100_000},
        {"params": {"xi": "x" * 200_000}},
        {"params": {"x" * 200_000: 1.0}},
        {"params": {"xi": 9.0, "sigma": -1.0}},
        {"family": "P3", "params": {}},
        {"family": "P1", "params": {"xi": 9.0, "eta": 1.0}},
        {"family": "P1", "params": None},
        {"family": None, "params": {"xi": 9.0}},
        {"family": None, "params": {}},
        {"family": "P1", "params": {"xi": "0.7", "eta": 1.3}},
        {"family": "P1", "params": {"xi": 0.7, "eta": True}},
    ],
    ids=[
        "unknown-param", "non-numeric-param", "params-string", "params-list", "family-P9",
        "first-number", "second-null", "first-list", "param-too-large",
        "long-family", "long-param-value", "long-param-name",
        "params-off-family", "family-relabelled", "param-out-of-range", "params-missing",
        "params-without-family", "empty-params-without-family", "param-string", "param-bool",
    ],
)
def test_verify_rejects_malformed_pair_metadata(tmp_path, capsys, patch):
    pair_file = tmp_path / "pair.json"
    run_cli(capsys, "construct", "--family", "P0", "--out", str(pair_file))
    data = json.loads(pair_file.read_text())
    data.update(patch)
    pair_file.write_text(dump_json(data))
    code, out, err = run_cli(capsys, "verify", "--pair", str(pair_file))
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "FormatError"
    assert payload["message"]
    # Offending values are quoted in part, however long they are.
    assert len(err) < 300


def _drop_vector(clusters):
    del clusters[0]["vector"]


def _ragged(clusters):
    clusters[1]["vector"].pop()


def _not_a_pair(clusters):
    clusters[0]["vector"][0] = [1.0]


def _not_numbers(clusters):
    clusters[0]["vector"][0] = ["a", "b"]


def _too_large(clusters):
    clusters[0]["vector"][0] = [10**400, 0]


def _huge_entry(clusters):
    # Finite, but its square overflows: not a unit vector.
    clusters[0]["vector"] = [[1e200, 0.0], [0.0, 0.0]]


def _not_unit(clusters):
    clusters[1]["vector"][0][0] *= 1.001


def _empty_vector(clusters):
    clusters[:] = [{"vector": []}]


def _uneven_parts(clusters):
    # Four parts in all, as two [re, im] pairs would have.
    clusters[0]["vector"][:2] = [[1.0, 0.0, 0.0], [0.0]]


def _string_vector(clusters):
    clusters[0]["vector"] = "ab"


def _bool_parts(clusters):
    # As numbers these would be the unit vectors (1, 0) and (0, 1).
    clusters[0]["vector"] = [[True, False], [False, False]]
    clusters[1]["vector"] = [[False, False], [1, 0]]


@pytest.mark.parametrize(
    "mutate",
    [
        _drop_vector, _ragged, _not_a_pair, _not_numbers, _too_large, _huge_entry, _not_unit, _bool_parts,
        _empty_vector, _uneven_parts, _string_vector,
    ],
)
def test_ortho_graph_rejects_malformed_clusters(tmp_path, capsys, mutate):
    pair = MUPair(hw_eigenbasis(2, "z"), hw_eigenbasis(2, "x"))
    pair_file = tmp_path / "pair2.json"
    pair_file.write_text(dump_json(pair_to_dict(pair)))
    vectors_file = tmp_path / "vectors.json"
    run_cli(
        capsys, "search-extend", "--pair", str(pair_file), "--restarts", "64",
        "--out", str(vectors_file),
    )
    data = json.loads(vectors_file.read_text())
    assert len(data["clusters"]) == 2
    mutate(data["clusters"])
    vectors_file.write_text(dump_json(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "ortho-graph", "--vectors", str(vectors_file))
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "FormatError"
    assert payload["message"]


def _paths(node, path=()):
    """Every position in a JSON tree, the root first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _fuzz_case(rng, kind, data):
    """One mutation of a parsed JSON file, returned as the bytes to write."""
    data = json.loads(json.dumps(data))
    paths = list(_paths(data))
    matrices = [p for p in paths if isinstance(_at(data, p), str) and "\n" in _at(data, p)]
    if kind in ("splice", "token", "header"):
        path = rng.choice(matrices)
        lines = _at(data, path).splitlines()
        if kind == "splice":
            text = _at(data, path)
            a, b, c = sorted(rng.randrange(len(text)) for _ in range(3))
            text = text[:c] if rng.random() < 0.5 else text[:c] + text[a:b] + text[c:]
        elif kind == "token":
            row = rng.randrange(1, len(lines))
            tokens = lines[row].split()
            tokens[rng.randrange(len(tokens))] = rng.choice(["nan", "1e999", "x", "inf"])
            lines[row] = " ".join(tokens)
            text = "\n".join(lines)
        else:
            sizes = [0, 1, 5, 6, 7, -6, 10**12, "6.5", "x"]
            lines[0] = f"{rng.choice(sizes)} {rng.choice(sizes)}"
            text = "\n".join(lines)
        _at(data, path[:-1])[path[-1]] = text
    elif kind == "drop":
        dicts = [p for p in paths if isinstance(_at(data, p), dict) and _at(data, p)]
        parent = _at(data, rng.choice(dicts))
        del parent[rng.choice(sorted(parent))]
    elif kind == "retype":
        path = rng.choice(paths[1:])
        _at(data, path[:-1])[path[-1]] = rng.choice([None, True, 7, 10**400, 2.5, "s", [], {}, [[1]]])
    raw = dump_json(data).encode()
    if kind == "number":
        spots = [m.span() for m in re.finditer(rb"-?\d+(\.\d+)?(e[-+]?\d+)?", raw)]
        a, b = rng.choice(spots)
        raw = raw[:a] + rng.choice([b"NaN", b"1e999", b"-Infinity", b"x", b"1" * 5000]) + raw[b:]
    elif kind == "truncate":
        raw = raw[: rng.randrange(len(raw))]
    elif kind == "nest":
        raw = rng.choice([b"", b'{"first": ', b'{"clusters": ']) + b"[" * 200_000
    elif kind == "utf8":
        at = rng.randrange(len(raw))
        raw = raw[:at] + rng.choice([b"\xff", b"\xc3\x28", b"\xed\xa0\x80"]) + raw[at:]
    return raw


_FUZZ_KINDS = ("drop", "retype", "splice", "token", "header", "number", "truncate", "nest", "utf8")


def test_malformed_inputs_keep_the_error_contract(tmp_path, capsys):
    # Seeded mutations of a valid pair file and a valid vector file, each read
    # by every command that takes a file: nothing may escape run(), and every
    # exit 1 explains itself in JSON on stderr.
    pair_file = tmp_path / "p0.json"
    vectors_file = tmp_path / "vectors.json"
    assert run_cli(capsys, "construct", "--family", "P0", "--out", str(pair_file))[0] == 0
    code, _, _ = run_cli(
        capsys, "search-extend", "--pair", str(pair_file), "--restarts", "50",
        "--out", str(vectors_file),
    )
    assert code == 0
    bases = [json.loads(pair_file.read_text()), json.loads(vectors_file.read_text())]
    first = bases[0]["first"].splitlines()
    reproduced = [
        # A header that sizes a 6 x 10^12 matrix, deep nesting, non-UTF-8 bytes.
        dump_json(dict(bases[0], first="\n".join(["6 1000000000000"] + first[1:]))).encode(),
        b"[" * 200_000,
        b"\xff" + pair_file.read_bytes(),
    ]
    rng = random.Random(20240611)
    cases = reproduced + [
        _fuzz_case(rng, _FUZZ_KINDS[i % len(_FUZZ_KINDS)], bases[i % 2]) for i in range(270)
    ]
    target = tmp_path / "mutated.json"
    for i, raw in enumerate(cases):
        target.write_bytes(raw)
        for argv in (
            ["verify", "--pair", str(target)],
            ["fingerprint", "--pair", str(target)],
            ["search-extend", "--pair", str(target), "--restarts", "2"],
            ["ortho-graph", "--vectors", str(target)],
        ):
            try:
                code = run(argv)
            except Exception as exc:
                pytest.fail(f"case {i}, {argv[0]}: {exc!r} escaped")
            out, err = capsys.readouterr()
            assert code in (0, 1), (i, argv[0], code)
            if code == 1:
                payload = json.loads(err)
                assert payload["error"] and payload["message"], (i, argv[0])


def test_malformed_scripts_raise_format_error(tmp_path, capsys):
    # Seeded mutations of the four scripts `reduce --emit-script` writes, read
    # as the library reads a script file: a FormatError is the only error.
    from mub6 import FormatError
    from mub6.serialize import script_from_dict

    scripts = []
    for i, family_args in enumerate(_FAMILY_ARGS):
        script_file = tmp_path / f"s{i}.json"
        code, _, _ = run_cli(capsys, "reduce", "--family", *family_args, "--emit-script", str(script_file))
        assert code == 0
        scripts.append(json.loads(script_file.read_text()))
    # The P0 script has no moves, so no matrix text or number to mutate.
    no_payload = ("drop", "retype", "truncate", "nest", "utf8")
    rng = random.Random(20240612)
    for i in range(240):
        data = scripts[i % 4]
        kinds = _FUZZ_KINDS if data["moves"] else no_payload
        raw = _fuzz_case(rng, kinds[i // 4 % len(kinds)], data)
        try:
            script_from_dict(load_json(raw.decode("utf-8", errors="replace")))
        except FormatError:
            pass
        except Exception as exc:
            pytest.fail(f"case {i}: {exc!r} escaped")
