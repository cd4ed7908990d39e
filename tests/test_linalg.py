import numpy as np
import pytest

from mub6 import (
    EQ_TOL,
    OMEGA,
    Basis,
    DimensionError,
    FamilyParams,
    FormatError,
    InvalidMoveError,
    Move,
    NotABasisError,
    ParameterRangeError,
    ProductLabel,
    SearchConfig,
    format_matrix,
    hw_eigenbasis,
    is_mu_pair,
    is_unitary,
    make_family_pair,
    make_Ftilde,
    orthogonality_graph,
    parse_matrix,
)
from mub6.serialize import pair_from_dict, pair_to_dict, script_from_dict, vectors_from_dict

RNG = np.random.default_rng(7)


def random_unit(dim, rng=RNG):
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def tensor(u, v):
    """The tensor product u (x) v, as ProductLabel.vector() computes it."""
    return ProductLabel(u, v).vector()


def test_tensor_product_standard_cases():
    assert np.array_equal(tensor([1, 0], [1, 0, 0]), [1, 0, 0, 0, 0, 0])
    s = 1 / np.sqrt(2)
    assert np.array_equal(tensor([s, s], [1, 0, 0]), [s, 0, 0, s, 0, 0])
    assert np.array_equal(tensor([0, 1], [0, 0, 1]), [0, 0, 0, 0, 0, 1])


def test_tensor_product_rejects_bad_dims():
    with pytest.raises(DimensionError):
        tensor([1, 0, 0, 0], [1, 0])
    with pytest.raises(DimensionError):
        tensor([1], [1, 0])
    with pytest.raises(DimensionError):
        tensor([[1, 0]], [1, 0, 0])
    with pytest.raises(DimensionError):
        tensor([1, 0], [[1, 0, 0]])


def test_tensor_product_preserves_inner_products():
    for _ in range(50):
        u, u2 = random_unit(2), random_unit(2)
        v, v2 = random_unit(3), random_unit(3)
        lhs = np.vdot(tensor(u, v), tensor(u2, v2))
        rhs = np.vdot(u, u2) * np.vdot(v, v2)
        assert abs(lhs - rhs) <= EQ_TOL


def test_tensor_product_matches_kron_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(40):
        a, b = random_unit(2, rng), random_unit(3, rng)
        assert tensor(a, b).tobytes() == np.kron(a, b).tobytes()


def test_is_unitary():
    assert is_unitary(np.eye(4))
    f3 = hw_eigenbasis(3, "x").matrix
    assert is_unitary(f3)
    broken = f3.copy()
    broken[0, 0] = 0.0
    assert not is_unitary(broken)
    with pytest.raises(DimensionError):
        is_unitary(np.ones((2, 3)))
    with pytest.raises(FormatError):
        is_unitary([[np.inf]])


def test_is_unitary_invariant_under_moves():
    rng = np.random.default_rng(11)
    m = make_Ftilde(1.2, 4.0)
    for _ in range(20):
        perm = rng.permutation(6)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
        assert is_unitary(np.diag(phases) @ m[perm, :])
        assert is_unitary(m[:, perm] @ np.diag(phases))


def test_matrix_text_round_trip():
    rng = np.random.default_rng(3)
    for shape in [(3, 3), (6, 6), (2, 5)]:
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        back = parse_matrix(format_matrix(m))
        assert np.array_equal(back, m)  # 17 significant digits round-trip exactly


def _reference_format(m):
    """format_matrix written entry by entry, as the text format defines it."""
    lines = [f"{m.shape[0]} {m.shape[1]}"]
    for row in m:
        lines.append(" ".join(f"{complex(z).real:.17g}{complex(z).imag:+.17g}j" for z in row))
    return "\n".join(lines) + "\n"


def test_matrix_text_matches_reference_and_round_trips_bits():
    rng = np.random.default_rng(11)
    big, tiny = 1.7976931348623157e308, 5e-324
    edges = np.array(
        [
            [complex(0.0, 0.0), complex(-0.0, -0.0), complex(0.0, -0.0)],
            [complex(-0.0, 0.0), complex(tiny, -tiny), complex(-tiny, 0.0)],
            [complex(big, -big), complex(-big, big), complex(1.0, tiny)],
        ]
    )
    cases = [edges]
    for shape in [(1, 1), (2, 3), (6, 6), (12, 4)]:
        scale = 10.0 ** rng.integers(-300, 300, size=shape)
        cases.append((rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale)
    for m in cases:
        text = format_matrix(m)
        assert text == _reference_format(m)
        back = parse_matrix(text)
        # Bit-equal, signed zeros included.
        assert back.shape == m.shape and back.tobytes() == m.tobytes()
    assert np.signbit(parse_matrix(format_matrix(edges)).view(np.float64)[0, 2:4]).tolist() == [True, True]


def test_matrix_text_format_shape():
    text = format_matrix(np.eye(2))
    lines = text.strip().splitlines()
    assert lines[0] == "2 2"
    assert lines[1].split() == ["1+0j", "0+0j"]


def test_parse_matrix_errors():
    from mub6 import FormatError

    with pytest.raises(FormatError):
        parse_matrix("")
    with pytest.raises(FormatError):
        parse_matrix("2 2\n1+0j 0+0j\n")
    with pytest.raises(FormatError):
        parse_matrix("1 1\nnot-a-number\n")
    # A row that disagrees with a huge header is refused before any allocation.
    with pytest.raises(FormatError):
        parse_matrix("1 1000000000000\n1+0j\n")
    # Messages quote only a short prefix of a huge header or entry.
    for text in ("[" * 200_000, "1 1\n" + "x" * 200_000 + "\n"):
        with pytest.raises(FormatError) as info:
            parse_matrix(text)
        assert len(str(info.value)) < 200


def test_omega_is_exact_cube_root():
    assert abs(OMEGA**3 - 1.0) < 1e-15
    assert abs(1 + OMEGA + OMEGA**2) < 1e-15


def _p1_pair_with_xi(xi):
    data = pair_to_dict(make_family_pair("P1", FamilyParams(xi=0.7, eta=1.3)))
    data["params"]["xi"] = xi
    return pair_from_dict(data)


# Every entry point of the number rule, each with the value in a slot where
# the number 1 would be accepted, and the error it raises there.
_NUMBER_ENTRY_POINTS = {
    "move-perm": (lambda x: Move("permute-rows", perm=(x, 0, 2, 3, 4, 5)), InvalidMoveError),
    "move-phases": (lambda x: Move("left-diag-phase", phases=(x, 0.0, 0.0, 0.0, 0.0, 0.0)), InvalidMoveError),
    "move-matrix": (lambda x: Move("left-unitary", matrix=[[x, 0], [0, 1]]), InvalidMoveError),
    "script-perm": (
        lambda x: script_from_dict({"moves": [{"kind": "permute-rows", "perm": [x, 2, 3, 4, 5, 6]}]}),
        FormatError,
    ),
    "script-phases": (
        lambda x: script_from_dict({"moves": [{"kind": "left-diag-phase", "phases": [x, 0, 0, 0, 0, 0]}]}),
        FormatError,
    ),
    "pair-params": (_p1_pair_with_xi, FormatError),
    "vector-part": (
        lambda x: vectors_from_dict({"clusters": [{"vector": [[x, 0.0], [0.0, 0.0]]}]}),
        FormatError,
    ),
    "search-restarts": (lambda x: SearchConfig(restarts=x), ParameterRangeError),
    "search-seed": (lambda x: SearchConfig(master_seed=x), ParameterRangeError),
}


@pytest.mark.parametrize("entry", sorted(_NUMBER_ENTRY_POINTS))
@pytest.mark.parametrize(
    "bad", [True, "1", None, 10**400, [1]], ids=["bool", "string", "none", "huge-int", "list"]
)
def test_number_rule_at_every_entry_point(entry, bad):
    build, error = _NUMBER_ENTRY_POINTS[entry]
    build(1)
    with pytest.raises(error):
        build(bad)


def test_huge_entries_fail_before_any_product_overflows():
    # The suite turns warnings into errors, so an overflow in a norm or a
    # Gram product would raise RuntimeWarning here instead.
    huge = 1e200 * np.eye(6)
    assert not is_unitary(huge)
    with pytest.raises(InvalidMoveError):
        Move("left-unitary", matrix=huge)
    with pytest.raises(NotABasisError, match=r"Gram deviation inf at vector pair \(0, 0\)"):
        Basis(1e200 * np.eye(2))
    with pytest.raises(NotABasisError, match="not a unit vector"):
        ProductLabel([1e200, 0], np.eye(3)[:, 0])
    with pytest.raises(FormatError, match="norm 1"):
        orthogonality_graph([[1e200, 0], [0, 1]])
    # Finite, but its modulus is past the largest double.
    edge = complex(1.7e308, 1.7e308)
    with pytest.raises(NotABasisError):
        Basis(np.array([[edge, 0], [0, 1]]))
    with pytest.raises(NotABasisError):
        ProductLabel([edge, 0], np.eye(3)[:, 0])
    with pytest.raises(FormatError, match="norm 1"):
        orthogonality_graph([[edge, 0], [0, 1]])


def test_is_mu_pair_fails_on_huge_entries_without_overflow():
    # Raw matrices reach is_mu_pair without Basis's Gram guard; squaring a
    # 1e200 overlap would raise RuntimeWarning here.
    check = is_mu_pair(1e200 * np.eye(2), np.eye(2))
    assert (check.ok, check.worst_deviation, check.worst_index) == (False, np.inf, (0, 0))
    f2 = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)
    second = f2.astype(complex)
    second[0, 1] = second[1, 1] = complex(1.7e308, 1.7e308)
    check = is_mu_pair(np.eye(2), second)
    assert (check.ok, check.worst_deviation, check.worst_index) == (False, np.inf, (0, 1))
    # Products past the double range meet inf - inf: a NaN deviation fails too.
    check = is_mu_pair(second, second)
    assert not check.ok and np.isnan(check.worst_deviation)


def test_gram_guard_reports_the_first_column_past_one():
    # Column 0 is reported by its own |<a_0|a_0> - 1|, ahead of the largest
    # Gram entry, 9 at (2, 2).
    m = np.eye(3)
    m[0, 0], m[1, 2] = 1.5, 3.0
    with pytest.raises(NotABasisError, match=r"Gram deviation 1\.250e\+00 at vector pair \(0, 0\)"):
        Basis(m)
    # An entry just inside 1 + EQ_TOL goes on to the Gram test itself.
    assert is_unitary(np.diag([1.0 + 0.4 * EQ_TOL, 1.0]))


def test_empty_input_keeps_its_errors():
    with pytest.raises(DimensionError):
        ProductLabel([], np.eye(3)[:, 0])
    with pytest.raises(DimensionError):
        ProductLabel([1.0, 0.0], [])
    for vectors in ([[]], [[], []]):
        with pytest.raises(FormatError, match="norm 1"):
            orthogonality_graph(vectors)
    assert vectors_from_dict({"clusters": []}) == ()
