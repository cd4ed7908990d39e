import numpy as np
import pytest

from mub6 import (
    EQ_TOL,
    OMEGA,
    DimensionError,
    format_matrix,
    hw_eigenbasis,
    is_unitary,
    make_Ftilde,
    parse_matrix,
    tensor_product,
)

RNG = np.random.default_rng(7)


def random_unit(dim, rng=RNG):
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def test_tensor_product_standard_cases():
    assert np.allclose(
        tensor_product([1, 0], [1, 0, 0]), [1, 0, 0, 0, 0, 0]
    )
    s = 1 / np.sqrt(2)
    assert np.allclose(
        tensor_product([s, s], [1, 0, 0]), [s, 0, 0, s, 0, 0]
    )
    assert np.allclose(
        tensor_product([0, 1], [0, 0, 1]), [0, 0, 0, 0, 0, 1]
    )


def test_tensor_product_rejects_bad_dims():
    with pytest.raises(DimensionError):
        tensor_product([1, 0, 0, 0], [1, 0])
    with pytest.raises(DimensionError):
        tensor_product([1], [1, 0])


def test_tensor_product_preserves_inner_products():
    for _ in range(50):
        u, u2 = random_unit(2), random_unit(2)
        v, v2 = random_unit(3), random_unit(3)
        lhs = np.vdot(tensor_product(u, v), tensor_product(u2, v2))
        rhs = np.vdot(u, u2) * np.vdot(v, v2)
        assert abs(lhs - rhs) <= EQ_TOL


def test_tensor_product_matches_kron_bit_for_bit():
    rng = np.random.default_rng(11)
    for m, n in ((2, 3), (3, 2), (2, 2), (3, 3)):
        for _ in range(10):
            a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert tensor_product(a, b).tobytes() == np.kron(a, b).tobytes()


def test_is_unitary():
    assert is_unitary(np.eye(4))
    f3 = hw_eigenbasis(3, "x").matrix
    assert is_unitary(f3)
    broken = f3.copy()
    broken[0, 0] = 0.0
    assert not is_unitary(broken)
    with pytest.raises(DimensionError):
        is_unitary(np.ones((2, 3)))


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
