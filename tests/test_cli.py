import json

import numpy as np
import pytest

from mub6 import hw_eigenbasis, make_Ftilde, parse_matrix, format_matrix
from mub6.cli import run
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


def test_usage_errors_exit_2(capsys):
    code, _, _ = run_cli(capsys, "construct", "--family", "P7")
    assert code == 2
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 2
    code, _, _ = run_cli(capsys, "construct", "--family", "P0", "--bogus-flag", "1")
    assert code == 2


def test_verify_rejects_non_mu_pair(tmp_path, capsys):
    eye = format_matrix(np.eye(6))
    bad = {"first": eye, "second": eye, "family": None, "params": None}
    f = tmp_path / "bad.json"
    f.write_text(dump_json(bad))
    code, out, err = run_cli(capsys, "verify", "--pair", str(f))
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "NotMUPairError"


def test_verify_missing_file(capsys):
    code, out, err = run_cli(capsys, "verify", "--pair", "/does/not/exist.json")
    assert code == 1
    assert json.loads(err)["error"] == "IOError"


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
    assert json.loads(out_file.read_text())["pair"]["params"] == {}


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
    ],
    ids=[
        "unknown-param", "non-numeric-param", "params-string", "params-list", "family-P9",
        "first-number", "second-null", "first-list",
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


def _drop_vector(clusters):
    del clusters[0]["vector"]


def _ragged(clusters):
    clusters[1]["vector"].pop()


def _not_a_pair(clusters):
    clusters[0]["vector"][0] = [1.0]


def _not_numbers(clusters):
    clusters[0]["vector"][0] = ["a", "b"]


@pytest.mark.parametrize("mutate", [_drop_vector, _ragged, _not_a_pair, _not_numbers])
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
    code, out, err = run_cli(capsys, "ortho-graph", "--vectors", str(vectors_file))
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "FormatError"
    assert payload["message"]
