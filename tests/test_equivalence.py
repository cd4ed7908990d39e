import numpy as np
import pytest

from mub6 import (
    EQ_TOL,
    Basis,
    FamilyParams,
    FormatError,
    HadamardFingerprint,
    InvalidMoveError,
    Move,
    MUPair,
    NotHadamardError,
    apply_script,
    dephase,
    fourier_family,
    ftilde_to_fourier,
    haagerup_fingerprint,
    hw_eigenbasis,
    is_mu_pair,
    make_family_pair,
    make_Ftilde,
    reduce_P1,
    reduce_P2,
    reduce_P3,
)
from mub6 import equivalence
from mub6.linalg import OMEGA2
from mub6.serialize import dump_json, load_json, script_from_dict, script_to_dict

OMEGA_ANGLES = (0.0, 2 * np.pi / 3, 4 * np.pi / 3)


def fourier6():
    # Independent oracle: the canonical 6x6 Fourier matrix e^{2 pi i jk / 6} / sqrt 6.
    jk = np.outer(np.arange(6), np.arange(6))
    return np.exp(2j * np.pi * jk / 6.0) / np.sqrt(6.0)


def p0_pair():
    return make_family_pair("P0")


def test_apply_script_empty_and_swap():
    pair = p0_pair()
    same = apply_script(pair, ())
    assert np.array_equal(same.first.matrix, pair.first.matrix)
    assert np.array_equal(same.second.matrix, pair.second.matrix)

    swapped = apply_script(pair, (Move("swap-members"),))
    assert np.array_equal(swapped.first.matrix, pair.second.matrix)
    assert np.array_equal(swapped.second.matrix, pair.first.matrix)


def test_apply_script_left_unitary():
    pair = p0_pair()
    ft = pair.second.matrix
    out = apply_script(pair, (Move("left-unitary", matrix=ft.conj().T),))
    assert np.abs(out.first.matrix - ft.conj().T).max() < 1e-14
    assert np.abs(out.second.matrix - np.eye(6)).max() <= EQ_TOL


def test_move_validation():
    pair = p0_pair()
    with pytest.raises(InvalidMoveError):
        apply_script(pair, (Move("permute-rows", perm=(0, 0, 1, 2, 3, 4)),))
    with pytest.raises(InvalidMoveError):
        apply_script(pair, (Move("left-unitary", matrix=np.ones((6, 6))),))
    with pytest.raises(InvalidMoveError):
        apply_script(pair, (Move("permute-cols", perm=(0, 1, 2, 3, 4, 5)),))
    with pytest.raises(InvalidMoveError):
        apply_script(pair, (Move("no-such-kind"),))
    with pytest.raises(InvalidMoveError):
        apply_script(pair, (Move("left-diag-phase", phases=(0.0,)),))


@pytest.mark.parametrize(
    "kind, fields",
    [
        ("permute-rows", {"perm": (0.9, 1.7, 2, 3, 4, 5)}),
        ("permute-rows", {"perm": (1.0, 0, 2, 3, 4, 5)}),
        ("permute-cols", {"member": "first", "perm": [True, False, 2, 3, 4, 5]}),
        ("permute-rows", {"perm": ("1", 0, 2, 3, 4, 5)}),
        ("left-diag-phase", {"phases": ["0.5"] * 6}),
        ("left-diag-phase", {"phases": [True] + [0.0] * 5}),
        ("right-diag-phase", {"member": "second", "phases": [float("nan")] + [0.0] * 5}),
        ("bogus", {}),
        (None, {}),
        ("swap-members", {"perm": (1, 0)}),
        ("permute-rows", {"member": "first", "perm": (0, 1, 2, 3, 4, 5)}),
        ("right-diag-phase", {"member": "third", "phases": [0.0] * 6}),
        ("left-unitary", {"matrix": np.eye(6)[:, :5]}),
        ("left-unitary", {"matrix": 1.5 * np.eye(6)}),
        ("left-unitary", {"matrix": "abc"}),
        ("left-unitary", {"matrix": [[1, "x"]]}),
        ("left-unitary", {"matrix": [[True]]}),
        ("left-unitary", {"matrix": [[True, 0.0], [0.0, 1.0]]}),
        ("left-unitary", {"matrix": [["1"]]}),
        ("left-unitary", {"matrix": []}),
        ("left-unitary", {"matrix": [[float("inf")]]}),
        ("left-unitary", {"matrix": [[10**400]]}),
        ("left-unitary", {"matrix": [[1, 0], [0]]}),
        ("permute-rows", {"perm": 5}),
        ("left-diag-phase", {"phases": [10**400] + [0.0] * 5}),
    ],
    ids=[
        "perm-float", "perm-whole-float", "perm-bool", "perm-string",
        "phase-string", "phase-bool", "phase-nan", "unknown-kind", "no-kind",
        "swap-members-with-perm", "permute-rows-with-member", "bad-member",
        "matrix-not-square", "matrix-not-unitary", "matrix-string",
        "matrix-string-entry", "matrix-bool", "matrix-bool-entry",
        "matrix-numeric-string", "matrix-empty", "matrix-inf", "matrix-huge-int",
        "matrix-ragged", "perm-not-a-sequence", "phase-huge-int",
    ],
)
def test_move_is_checked_when_built(kind, fields):
    with pytest.raises(InvalidMoveError):
        Move(kind, **fields)


def test_move_stores_plain_tuples():
    move = Move("permute-cols", "second", perm=np.array([1, 0, 2, 3, 4, 5]))
    assert move.perm == (1, 0, 2, 3, 4, 5) and all(type(i) is int for i in move.perm)
    move = Move("left-diag-phase", phases=np.linspace(0.0, 1.0, 6))
    assert all(type(p) is float for p in move.phases)
    move = Move("left-unitary", matrix=np.eye(6))
    assert type(move.matrix) is tuple and all(type(row) is tuple and len(row) == 6 for row in move.matrix)
    assert all(type(z) is complex for row in move.matrix for z in row)


def test_moves_and_scripts_compare_and_hash_by_value():
    for reduce in (lambda: reduce_P1(0.7, 1.3), reduce_P2, lambda: reduce_P3(0.4, 1.1, 0.9, 2.0)):
        first, second = reduce()[1], reduce()[1]
        assert first == second and hash(first) == hash(second)
    move = Move("left-unitary", matrix=np.eye(6))
    twin = Move("left-unitary", matrix=np.eye(6))
    assert move == twin and hash(move) == hash(twin)
    assert move != Move("left-unitary", matrix=-np.eye(6))
    # Entries compare by ==, so signed zeros are equal and hash alike.
    plus, minus = (Move("left-diag-phase", phases=(z,) * 6) for z in (0.0, -0.0))
    assert plus == minus and hash(plus) == hash(minus)
    assert Move("swap-members") != Move("conjugate-both") and Move("swap-members") != "swap-members"


def test_apply_script_checks_mu_after_every_move():
    # Each move passes is_unitary (|1 - (1 + 4e-11)^2| < EQ_TOL), but the
    # first member's column norm drifts by 8e-11 per move until the pair
    # fails MU_TOL.
    u = np.diag([1 + 4e-11, 1, 1, 1, 1, 1])
    script = (Move("left-unitary", matrix=u),) * 200
    with pytest.raises(InvalidMoveError, match=r"^move 37 \(left-unitary\) broke mutual unbiasedness"):
        apply_script(p0_pair(), script)


def test_reduce_P2_pair_is_its_script_replayed():
    out, script = reduce_P2()
    replayed = apply_script(make_family_pair("P2"), script)
    assert out.first.matrix.tobytes() == replayed.first.matrix.tobytes()
    assert out.second.matrix.tobytes() == replayed.second.matrix.tobytes()


def _reduce_P2_reference():
    # The P2 reduction built move by move: each move is applied and checked
    # as it is chosen, and each restore reads the running first member.
    pair = make_family_pair("P2")
    hy = hw_eigenbasis(3, "y").matrix
    zero = np.zeros((3, 3))
    u = np.block([[np.eye(3), zero], [zero, 1j * hy.conj().T]])
    moves = []
    m1, m2 = pair.first.matrix, pair.second.matrix

    def push(*new):
        nonlocal m1, m2
        for mv in new:
            m1, m2 = equivalence._apply_raw(m1, m2, mv)
            assert is_mu_pair(m1, m2).ok
            moves.append(mv)

    push(Move("left-unitary", matrix=u))
    push(*equivalence._restore_first_moves(m1))
    w2_angle = float(np.angle(OMEGA2))
    push(
        Move("permute-rows", perm=(0, 2, 1, 3, 4, 5)),
        Move("permute-rows", perm=(0, 1, 2, 4, 3, 5)),
        Move("permute-cols", "second", perm=(0, 5, 2, 3, 4, 1)),
        Move("permute-cols", "second", perm=(0, 1, 4, 3, 2, 5)),
        Move("permute-cols", "second", perm=(0, 1, 2, 4, 3, 5)),
        Move("left-diag-phase", phases=(0.0, 0.0, 0.0, w2_angle, 0.0, w2_angle)),
    )
    push(*equivalence._restore_first_moves(m1))
    return m1, m2, tuple(moves)


def test_reduce_P2_matches_the_move_by_move_reference():
    # A reference computed here, not a stored digest: the left-unitary move is
    # a BLAS product, whose last bits may differ between hosts.
    out, script = reduce_P2()
    m1, m2, reference = _reduce_P2_reference()
    assert script == reference
    assert [move.kind for move in script] == [
        "left-unitary",
        "right-diag-phase",
        "permute-rows",
        "permute-rows",
        "permute-cols",
        "permute-cols",
        "permute-cols",
        "left-diag-phase",
        "permute-cols",
        "right-diag-phase",
    ]
    assert out.first.matrix.tobytes() == m1.tobytes()
    assert out.second.matrix.tobytes() == m2.tobytes()


def test_script_replay_is_bit_stable():
    _, script = reduce_P2()
    pair = make_family_pair("P2")
    out1 = apply_script(pair, script)
    out2 = apply_script(pair, script)
    assert out1.second.matrix.tobytes() == out2.second.matrix.tobytes()
    assert out1.first.matrix.tobytes() == out2.first.matrix.tobytes()


def test_script_json_round_trip():
    _, script = reduce_P2()
    data = script_to_dict(script)
    back = script_from_dict(data)
    pair = make_family_pair("P2")
    out1 = apply_script(pair, script)
    out2 = apply_script(pair, back)
    assert out1.second.matrix.tobytes() == out2.second.matrix.tobytes()
    assert back == script
    # Serialized permutations are 1-based.
    kinds = [m["kind"] for m in data["moves"]]
    assert "left-unitary" in kinds
    for move in data["moves"]:
        if "perm" in move:
            assert sorted(move["perm"]) == [1, 2, 3, 4, 5, 6]


def test_dephase_scripts_round_trip_exactly():
    # Phases are written in radians, whose repr reads back bit for bit.
    rng = np.random.default_rng(17)
    for _ in range(100):
        xi, eta = rng.uniform(0.0, 2 * np.pi, 2)
        rows, cols = np.exp(1j * rng.uniform(0.0, 2 * np.pi, (2, 6)))
        _, script = dephase(rows[:, None] * make_Ftilde(xi, eta) * cols)
        assert script_from_dict(load_json(dump_json(script_to_dict(script)))) == script


@pytest.mark.parametrize(
    "data",
    [
        {"moves": 5},
        {"moves": [7]},
        {"moves": [{"kind": "permute-rows", "perm": 5}]},
        {"moves": [{"kind": "left-unitary", "matrix": 5}]},
        {"moves": [{"kind": "left-diag-phase", "phases": ["x"] * 6}]},
        # Numbers are not coerced: no float, bool or string permutation
        # entries, and no bool or string phases.
        {"moves": [{"kind": "permute-rows", "perm": [1.9, 2.2, 3, 4, 5, 6]}]},
        {"moves": [{"kind": "permute-rows", "perm": [1.0, 2, 3, 4, 5, 6]}]},
        {"moves": [{"kind": "permute-rows", "perm": [True, 2, 3, 4, 5, 6]}]},
        {"moves": [{"kind": "permute-rows", "perm": [1, "2", 3, 4, 5, 6]}]},
        {"moves": [{"kind": "left-diag-phase", "phases": ["0.5"] * 6}]},
        {"moves": [{"kind": "left-diag-phase", "phases": [True] + [0.0] * 5}]},
        {"moves": [{"kind": "left-diag-phase", "phases": [10**400] + [0.0] * 5}]},
        # No 'moves' key, an unknown kind, and fields or keys a kind does not take.
        {"move": [{"kind": "swap-members"}]},
        {"moves": [{"kind": "bogus"}]},
        {"moves": [{"kind": "swap-members", "perm": [1, 2]}]},
        {"moves": [{"kind": "permute-rows", "member": "first", "perm": [1, 2, 3, 4, 5, 6]}]},
        {"moves": [{"kind": "left-diag-phase", "phases_over_2pi": [0.0] * 6}]},
        {"moves": [{"kind": "swap-members", "note": "x"}]},
        {"moves": [{"kind": "left-unitary", "matrix": "2 2\n1+0j 0+0j\n0+0j 2+0j\n"}]},
    ],
)
def test_script_reader_raises_format_error(data):
    with pytest.raises(FormatError):
        script_from_dict(data)


def test_dephase():
    f3 = hw_eigenbasis(3, "x").matrix
    out, script = dephase(f3)
    assert np.abs(out - f3).max() < 1e-14  # already dephased
    rephased = np.diag([1.0, np.exp(2j * np.pi / 3), 1.0]) @ f3
    assert np.abs(dephase(rephased)[0] - f3).max() < 1e-14

    ft, _ = dephase(make_Ftilde(0.7, 2.9))
    assert np.abs(ft[0, :] - 1 / np.sqrt(6)).max() <= EQ_TOL
    assert np.abs(ft[:, 0] - 1 / np.sqrt(6)).max() <= EQ_TOL

    with pytest.raises(NotHadamardError):
        dephase(np.eye(6))


def test_dephase_script_replays_on_pair():
    ft = make_Ftilde(1.1, 0.3)
    out, script = dephase(ft)
    pair = MUPair(Basis(np.eye(6, dtype=complex)), Basis(ft))
    replayed = apply_script(pair, script)
    assert np.abs(replayed.first.matrix - np.eye(6)).max() <= EQ_TOL
    assert np.abs(replayed.second.matrix - out).max() <= EQ_TOL


def test_reduce_P1_twenty_samples():
    rng = np.random.default_rng(20)
    for _ in range(20):
        xi, eta = rng.uniform(1e-6, 2 * np.pi, 2)
        out, script = reduce_P1(xi, eta)
        assert len(script) == 3
        assert np.abs(out.first.matrix - np.eye(6)).max() <= 1e-10
        assert np.abs(out.second.matrix - make_Ftilde(xi, eta)).max() <= 1e-10
        # Fingerprint is preserved between the P1 member and its reduction.
        before = haagerup_fingerprint(make_family_pair("P1", FamilyParams(xi=xi, eta=eta)).second.matrix)
        after = haagerup_fingerprint(out.second.matrix)
        assert before == after


def test_reduce_P1_replay_matches():
    xi, eta = np.pi, np.pi
    out, script = reduce_P1(xi, eta)
    pair = make_family_pair("P1", FamilyParams(xi=xi, eta=eta))
    replayed = apply_script(pair, script)
    assert np.array_equal(replayed.second.matrix, out.second.matrix)


def test_ftilde_to_fourier():
    mat, script = ftilde_to_fourier(0.0, 0.0)
    deph, _ = dephase(mat)
    oracle, _ = dephase(fourier6())
    assert np.abs(deph - oracle).max() <= 1e-10

    rng = np.random.default_rng(21)
    for _ in range(10):
        xi, eta = rng.uniform(0, 2 * np.pi, 2)
        mat, script = ftilde_to_fourier(xi, eta)
        assert np.abs(np.abs(mat) - 1 / np.sqrt(6)).max() <= EQ_TOL
        # Already dephased: the moves never touch the first row or column.
        assert np.abs(mat[0, :] - 1 / np.sqrt(6)).max() <= EQ_TOL
        assert np.abs(mat[:, 0] - 1 / np.sqrt(6)).max() <= EQ_TOL
        assert is_mu_pair(np.eye(6), mat).ok
        # The script does the same thing to the pair {I, Ftilde}.
        pair = MUPair(Basis(np.eye(6, dtype=complex)), Basis(make_Ftilde(xi, eta)))
        replayed = apply_script(pair, script)
        assert np.abs(replayed.first.matrix - np.eye(6)).max() <= EQ_TOL
        assert np.array_equal(replayed.second.matrix, mat)


def test_reduce_P3_twenty_samples():
    rng = np.random.default_rng(22)
    for _ in range(20):
        zeta, chi = rng.uniform(0, 2 * np.pi, 2)
        sigma, tau = rng.uniform(1e-6, np.pi - 1e-6, 2)
        out, script = reduce_P3(zeta, chi, sigma, tau)
        assert np.abs(out.first.matrix - np.eye(6)).max() <= 1e-10
        assert np.abs(out.second.matrix - make_Ftilde(sigma - zeta, tau - chi)).max() <= 1e-10


def test_reduce_P3_degenerate_cases():
    sigma, tau = 1.0, 2.0
    out, _ = reduce_P3(0.0, 0.0, sigma, tau)
    assert np.abs(out.second.matrix - make_Ftilde(sigma, tau)).max() <= 1e-10
    out, _ = reduce_P3(sigma, tau, sigma, tau)
    assert np.abs(out.second.matrix - make_Ftilde(0.0, 0.0)).max() <= 1e-10


def test_reduce_P2_properties():
    out, script = reduce_P2()
    assert np.abs(out.first.matrix - np.eye(6)).max() <= EQ_TOL
    s6 = out.second.matrix
    deph, _ = dephase(s6)
    phases = np.mod(np.angle(deph * np.sqrt(6)), 2 * np.pi)
    targets = np.array(OMEGA_ANGLES + (2 * np.pi,))
    dev = np.min(np.abs(phases[..., None] - targets[None, None, :]), axis=-1)
    assert dev.max() <= 1e-9

    # Replaying the emitted script reproduces the returned pair.
    replayed = apply_script(make_family_pair("P2"), script)
    assert np.array_equal(replayed.second.matrix, s6)


def test_s6_is_not_in_the_fourier_family():
    s6 = reduce_P2()[0].second.matrix
    fp_s6 = haagerup_fingerprint(s6)
    assert fp_s6 != haagerup_fingerprint(fourier_family(0.0, 0.0))
    rng = np.random.default_rng(23)
    for _ in range(20):
        xi, eta = rng.uniform(0, 2 * np.pi, 2)
        assert fp_s6 != haagerup_fingerprint(fourier_family(xi, eta))


def test_fingerprint_f3_values():
    fp = haagerup_fingerprint(hw_eigenbasis(3, "x").matrix)
    roots = [np.exp(1j * a) for a in OMEGA_ANGLES]
    for (re, im), _ in fp.classes:
        assert min(abs(complex(re, im) * fp.quantum - r) for r in roots) < 1e-7


def test_fingerprint_invariance_under_random_moves():
    rng = np.random.default_rng(24)
    for _ in range(100):
        xi, eta = rng.uniform(0, 2 * np.pi, 2)
        h = make_Ftilde(xi, eta)
        base = haagerup_fingerprint(h)
        moved = h.copy()
        for _ in range(rng.integers(1, 5)):
            kind = rng.integers(0, 4)
            if kind == 0:
                moved = moved[rng.permutation(6), :]
            elif kind == 1:
                moved = moved[:, rng.permutation(6)]
            elif kind == 2:
                moved = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 6))) @ moved
            else:
                moved = moved @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 6)))
        assert haagerup_fingerprint(moved) == base


def test_fingerprint_transpose_invariant():
    h = make_Ftilde(0.9, 4.4)
    assert haagerup_fingerprint(h) == haagerup_fingerprint(h.T)


def _reference_classes(h):
    """Fingerprint classes grouped by np.unique over (re, im) key rows."""
    quantum = 1e-8
    m = np.asarray(h, dtype=complex)
    d = m.shape[0]
    mc = m.conj()
    products = (
        m[:, None, :, None]
        * m[None, :, None, :]
        * mc[:, None, None, :]
        * mc[None, :, :, None]
    ) * (d * d)
    flat = products.reshape(-1)
    keys = np.stack(
        [np.rint(flat.real / quantum).astype(np.int64), np.rint(flat.imag / quantum).astype(np.int64)],
        axis=1,
    )
    uniq, counts = np.unique(keys, axis=0, return_counts=True)
    return tuple(((int(re), int(im)), int(c)) for (re, im), c in zip(map(tuple, uniq), counts))


def test_fingerprint_grouping_matches_unique_rows():
    p1 = FamilyParams(xi=0.7, eta=1.3)
    p3 = FamilyParams(zeta=0.4, chi=1.1, sigma=0.9, tau=2.0)
    members = (("P0", None), ("P1", p1), ("P2", None), ("P3", p3))
    bases = [make_family_pair(f, p).second.matrix for f, p in members]
    bases.append(reduce_P2()[0].second.matrix)
    rng = np.random.default_rng(8)
    copies = []
    for i in range(20):
        h = bases[i % len(bases)][rng.permutation(6)][:, rng.permutation(6)]
        rows, cols = np.exp(1j * rng.uniform(0, 2 * np.pi, (2, 6)))
        copies.append(rows[:, None] * h * cols)
    for h in bases + copies:
        fp = haagerup_fingerprint(h)
        assert fp.classes == _reference_classes(h)
        assert fp.digest() == HadamardFingerprint(fp.quantum, _reference_classes(h)).digest()


def test_fingerprint_class_order_breaks_ties_on_imaginary_part():
    # omega and omega^2 share their real key, so im decides their order.
    fp = haagerup_fingerprint(hw_eigenbasis(3, "x").matrix)
    assert fp.classes == (
        ((-50000000, -86602540), 18),
        ((-50000000, 86602540), 18),
        ((100000000, 0), 45),
    )
    assert fp.classes == _reference_classes(hw_eigenbasis(3, "x").matrix)


def test_fingerprint_rejects_non_hadamard():
    with pytest.raises(NotHadamardError):
        haagerup_fingerprint(np.eye(6))
    with pytest.raises(NotHadamardError, match="square"):
        haagerup_fingerprint(np.ones((2, 3)) / np.sqrt(2))


def test_intermediate_mu_invariant_is_enforced():
    # A left multiplication by a non-unitary payload must be rejected before
    # it can corrupt the pair.
    pair = p0_pair()
    bad = np.eye(6)
    bad = bad * 1.5
    with pytest.raises(InvalidMoveError):
        apply_script(pair, (Move("left-unitary", matrix=bad),))
