import itertools

import numpy as np
import pytest

from mub6 import (
    EQ_TOL,
    OMEGA,
    OMEGA2,
    Basis,
    DimensionError,
    FamilyParams,
    FormatError,
    MUPair,
    NotABasisError,
    ParameterRangeError,
    PhaseWitness,
    ProductLabel,
    hw_eigenbasis,
    is_mu_pair,
    is_unitary,
    make_Ftilde,
    make_S,
    product_basis,
    same_basis_up_to_phase,
)

SQRT3 = np.sqrt(3.0)


def clock_matrix(dim):
    """Clock operator Z = diag(1, w, w^2, ...) with w = exp(2 pi i / dim)."""
    return np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))


def shift_matrix(dim):
    """Cyclic shift X with X|j> = |j+1 mod dim>."""
    return np.roll(np.eye(dim, dtype=np.complex128), 1, axis=0)


def test_clock_shift_commutation():
    for dim in (2, 3):
        z = clock_matrix(dim)
        x = shift_matrix(dim)
        w = np.exp(2j * np.pi / dim)
        assert np.abs(z @ x - w * (x @ z)).max() < 1e-15


def test_eigenbasis_matrices_match_printed_forms():
    f3 = hw_eigenbasis(3, "x").matrix
    expected_f3 = np.array([[1, 1, 1], [1, OMEGA, OMEGA2], [1, OMEGA2, OMEGA]]) / SQRT3
    assert np.abs(f3 - expected_f3).max() < 1e-15

    hy = hw_eigenbasis(3, "y").matrix
    expected_hy = np.array([[1, 1, 1], [OMEGA, OMEGA2, 1], [OMEGA, 1, OMEGA2]]) / SQRT3
    assert np.abs(hy - expected_hy).max() < 1e-15

    hw = hw_eigenbasis(3, "w").matrix
    expected_hw = np.array([[1, 1, 1], [OMEGA2, 1, OMEGA], [OMEGA2, OMEGA, 1]]) / SQRT3
    assert np.abs(hw - expected_hw).max() < 1e-15

    assert np.array_equal(hw_eigenbasis(2, "z").matrix, np.eye(2))
    assert np.array_equal(hw_eigenbasis(3, "z").matrix, np.eye(3))
    s = 1 / np.sqrt(2)
    assert np.abs(hw_eigenbasis(2, "x").matrix - np.array([[s, s], [s, -s]])).max() < 1e-15
    assert np.abs(hw_eigenbasis(2, "y").matrix - np.array([[s, s], [1j * s, -1j * s]])).max() < 1e-15


def test_x_eigenbasis_contract():
    # Columns of the x eigenbasis are eigenvectors of the cyclic shift.
    x = shift_matrix(3)
    f3 = hw_eigenbasis(3, "x").matrix
    for k in range(3):
        v = f3[:, k]
        image = x @ v
        lam = np.vdot(v, image)
        assert np.abs(image - lam * v).max() <= EQ_TOL
        assert abs(abs(lam) - 1.0) <= EQ_TOL


def test_qubit_y_convention_is_xz_eigenbasis():
    xz = shift_matrix(2) @ clock_matrix(2)
    y = hw_eigenbasis(2, "y").matrix
    for k in range(2):
        v = y[:, k]
        image = xz @ v
        lam = np.vdot(v, image)
        assert np.abs(image - lam * v).max() <= EQ_TOL


def test_invalid_eigenbasis_labels():
    with pytest.raises(DimensionError):
        hw_eigenbasis(2, "w")
    with pytest.raises(DimensionError):
        hw_eigenbasis(6, "z")
    with pytest.raises(DimensionError):
        hw_eigenbasis(3, "q")


def test_eigenbases_orthonormal_and_pairwise_mu():
    labels2 = ("z", "x", "y")
    labels3 = ("z", "x", "y", "w")
    for dim, labels in ((2, labels2), (3, labels3)):
        bases = {lab: hw_eigenbasis(dim, lab) for lab in labels}
        for lab in labels:
            assert is_unitary(bases[lab].matrix)
        for a, b in itertools.combinations(labels, 2):
            assert is_mu_pair(bases[a], bases[b]).ok


def test_product_of_mu_pairs_is_mu():
    labels2 = ("z", "x", "y")
    labels3 = ("z", "x", "y", "w")
    for a2, b2 in itertools.combinations(labels2, 2):
        for a3, b3 in itertools.combinations(labels3, 2):
            first = np.kron(hw_eigenbasis(2, a2).matrix, hw_eigenbasis(3, a3).matrix)
            second = np.kron(hw_eigenbasis(2, b2).matrix, hw_eigenbasis(3, b3).matrix)
            assert is_mu_pair(first, second).ok


def test_product_basis_and_labels():
    eye3 = np.eye(3, dtype=complex)
    labels = [
        ProductLabel(np.eye(2)[:, j], eye3[:, J], name=f"|{j}_z,{J}_z>")
        for j in range(2)
        for J in range(3)
    ]
    basis = product_basis(labels)
    assert np.array_equal(basis.matrix, np.eye(6))

    xx = [
        ProductLabel(hw_eigenbasis(2, "x").matrix[:, j], hw_eigenbasis(3, "x").matrix[:, J])
        for j in range(2)
        for J in range(3)
    ]
    assert same_basis_up_to_phase(product_basis(xx), make_Ftilde(0.0, 0.0)) is not None


def test_product_basis_rejects_non_orthogonal():
    e2 = np.eye(2)[:, 0]
    e3 = np.eye(3, dtype=complex)
    labels = [ProductLabel(e2, e3[:, 0], name=f"|dup{k}>") for k in range(6)]
    with pytest.raises(NotABasisError) as err:
        product_basis(labels)
    assert "dup" in str(err.value)


def test_basis_boundaries():
    with pytest.raises(NotABasisError, match="square"):
        Basis(np.eye(3)[:, :2])
    e2, e3 = np.eye(2), np.eye(3)
    labels = [ProductLabel(e2[:, j], e3[:, k]) for j in range(2) for k in range(3)]
    with pytest.raises(NotABasisError, match="5 labels"):
        Basis(np.eye(6), labels=labels[:5])
    with pytest.raises(NotABasisError, match="6 labels, got 5"):
        product_basis(labels[:5])
    assert same_basis_up_to_phase(np.eye(2), np.eye(3)) is None


def test_is_mu_pair_reports():
    f3 = hw_eigenbasis(3, "x").matrix
    assert is_mu_pair(np.eye(3), f3).ok
    check = is_mu_pair(np.eye(3), np.eye(3))
    assert not check.ok
    assert abs(check.worst_deviation - (1 - 1 / 3)) < 1e-12
    i, j = check.worst_index
    assert i == j
    assert is_mu_pair(np.eye(6), make_Ftilde(0.0, 0.0)).ok
    with pytest.raises(DimensionError):
        is_mu_pair(np.eye(2), np.eye(3))


def test_is_mu_pair_invariant_under_column_moves():
    rng = np.random.default_rng(5)
    a = np.eye(6, dtype=complex)
    b = make_Ftilde(0.4, 2.2)
    base = is_mu_pair(a, b)
    for _ in range(10):
        perm = rng.permutation(6)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
        moved = b[:, perm] @ np.diag(phases)
        check = is_mu_pair(a, moved)
        assert check.ok == base.ok
        assert abs(check.worst_deviation - base.worst_deviation) < 1e-12


def test_same_basis_up_to_phase_witness():
    b = hw_eigenbasis(3, "y").matrix
    w = same_basis_up_to_phase(1j * b, b)
    assert w is not None
    assert w.permutation == (0, 1, 2)
    for theta in w.phases:
        assert abs(theta - np.pi / 2) < 1e-12

    assert same_basis_up_to_phase(np.eye(3), hw_eigenbasis(3, "x")) is None

    s = make_S(4 * np.pi / 3, 4 * np.pi / 3)
    w2 = same_basis_up_to_phase(s, -1j * hw_eigenbasis(3, "y").matrix)
    assert w2 is not None
    assert w2.permutation == (0, 1, 2)
    # Column phases genuinely differ from one another here.
    assert abs(w2.phases[0] - w2.phases[1]) > 0.1


def test_same_basis_up_to_phase_witness_reconstructs():
    rng = np.random.default_rng(9)
    b = make_Ftilde(1.0, 2.0)
    perm = rng.permutation(6)
    phases = rng.uniform(0, 2 * np.pi, 6)
    a = b[:, perm] @ np.diag(np.exp(1j * phases))
    w = same_basis_up_to_phase(a, b)
    assert w is not None
    for k in range(6):
        lhs = a[:, k]
        rhs = np.exp(1j * w.phases[k]) * b[:, w.permutation[k]]
        assert np.abs(lhs - rhs).max() <= EQ_TOL


def test_same_basis_up_to_phase_is_equivalence():
    rng = np.random.default_rng(13)
    base = make_Ftilde(0.3, 1.7)
    variants = [base]
    for _ in range(2):
        perm = rng.permutation(6)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
        variants.append(base[:, perm] @ np.diag(phases))
    a, b, c = variants
    assert same_basis_up_to_phase(a, a) is not None  # reflexive
    assert same_basis_up_to_phase(a, b) is not None
    assert same_basis_up_to_phase(b, a) is not None  # symmetric
    assert same_basis_up_to_phase(b, c) is not None
    assert same_basis_up_to_phase(a, c) is not None  # transitive


def test_basis_and_pair_validation():
    bad = np.eye(6, dtype=complex)
    bad[0, 0] = 0.9
    with pytest.raises(NotABasisError):
        Basis(bad)
    from mub6 import NotMUPairError

    with pytest.raises(NotMUPairError):
        MUPair(Basis(np.eye(3, dtype=complex)), Basis(np.eye(3, dtype=complex)))
    with pytest.raises(DimensionError):
        MUPair(Basis(np.eye(2, dtype=complex)), Basis(hw_eigenbasis(3, "x").matrix))


def test_label_reproduction_enforced():
    e3 = np.eye(3, dtype=complex)
    wrong = [
        ProductLabel(np.eye(2)[:, (j + 1) % 2], e3[:, J])
        for j in range(2)
        for J in range(3)
    ]
    with pytest.raises(NotABasisError):
        Basis(np.eye(6, dtype=complex), labels=tuple(wrong))


def _z_labels():
    """Product labels |j>|J> of the dim-6 z basis, in column order."""
    e2, e3 = np.eye(2), np.eye(3)
    return [ProductLabel(e2[:, j], e3[:, J], name=f"|{j}{J}>") for j in range(2) for J in range(3)]


def test_label_mismatch_names_the_first_bad_label():
    labels = _z_labels()
    assert Basis(np.eye(6), labels=labels).labels == tuple(labels)
    one_bad = list(labels)
    one_bad[3] = labels[4]
    with pytest.raises(NotABasisError, match=r"^label '\|11>' does not reproduce basis vector 3$"):
        Basis(np.eye(6), labels=one_bad)
    two_bad = list(labels)
    two_bad[1], two_bad[4] = labels[0], labels[5]
    with pytest.raises(NotABasisError, match=r"^label '\|00>' does not reproduce basis vector 1$"):
        Basis(np.eye(6), labels=two_bad)


def test_label_factor_unit_norm_check():
    e3 = np.eye(3)[:, 0]
    for scale in (1 + 1e-9, 1 - 1e-9, 1 + 2e-10):
        for f2 in ([scale, 0.0], scale * np.array([1.0, 1j]) / np.sqrt(2.0)):
            with pytest.raises(NotABasisError, match="not a unit vector"):
                ProductLabel(f2, e3, name="bad")
    ProductLabel([1 + 1e-11, 0.0], e3)
    ProductLabel(np.array([1.0, 1j]) * (1 + 5e-11) / np.sqrt(2.0), e3)
    with pytest.raises(FormatError, match="non-finite"):
        ProductLabel([np.nan, 0.0], e3)
    with pytest.raises(FormatError, match="non-finite"):
        ProductLabel([1.0, 0.0], [1.0, complex(0.0, np.nan), 0.0])


def test_pair_params_need_a_family():
    first, second = hw_eigenbasis(2, "z"), hw_eigenbasis(2, "x")
    for params in (FamilyParams(xi=9.0), FamilyParams()):
        with pytest.raises(ParameterRangeError, match="without a family"):
            MUPair(first, second, params=params)


def test_tensor_label_vector():
    lab = ProductLabel([1, 0], [0, 1, 0], name="|0_z,1_z>")
    assert np.array_equal(lab.vector(), np.kron([1, 0], [0, 1, 0]))
    assert np.array_equal(lab.vector(), np.eye(6)[1])


def test_eigenbases_are_shared_and_read_only():
    for dim, labels in ((2, "zxy"), (3, "zxyw")):
        for label in labels:
            basis = hw_eigenbasis(dim, label)
            assert hw_eigenbasis(dim, label) is basis
            assert not basis.matrix.flags.writeable
            with pytest.raises(ValueError):
                basis.matrix[0, 0] = 0.0


def test_basis_error_names_both_labels():
    e2 = np.eye(2)
    f3 = hw_eigenbasis(3, "x").matrix
    # |0_z,0_z> and |0_z,0_x> overlap by 1/sqrt3.
    labels = [ProductLabel(e2[:, 0], np.eye(3)[:, 0], name="|0_z,0_z>")] + [
        ProductLabel(e2[:, j], f3[:, k], name=f"|{j}_z,{k}_x>") for j in range(2) for k in range(3)
    ][:5]
    m = np.column_stack([label.vector() for label in labels])
    with pytest.raises(NotABasisError) as err:
        Basis(m, labels=tuple(labels))
    assert "'|0_z,0_z>'" in str(err.value) and "'|0_z,0_x>'" in str(err.value)


def test_empty_matrix_is_a_dimension_error():
    empty = np.zeros((0, 0))
    for call in (Basis, is_unitary, lambda m: is_mu_pair(m, m)):
        with pytest.raises(DimensionError):
            call(empty)


def _backtracking_reference(a, b):
    """The column matcher as a backtracking search over every candidate match:
    what same_basis_up_to_phase must agree with, witness bits included."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    d = a.shape[0]
    candidates = []
    for k in range(d):
        row = []
        for j in range(d):
            ip = np.vdot(b[:, j], a[:, k])
            if abs(ip) < 1e-12:
                continue
            phase = ip / abs(ip)
            if np.abs(a[:, k] - phase * b[:, j]).max() <= EQ_TOL:
                row.append((j, float(np.angle(phase))))
        if not row:
            return None
        candidates.append(row)
    perm, phases, used = [-1] * d, [0.0] * d, [False] * d

    def assign(k):
        if k == d:
            return True
        for j, theta in candidates[k]:
            if used[j]:
                continue
            used[j] = True
            perm[k], phases[k] = j, theta
            if assign(k + 1):
                return True
            used[j] = False
        return False

    return PhaseWitness(tuple(perm), tuple(phases)) if assign(0) else None


def _matcher_case(rng, d):
    """A basis B and a permuted, column-phased copy A, with one of: nothing,
    a duplicated column in A or in B, 1e-11 noise on A, or a 1e-3 phase kick
    on one entry of A."""
    kind = rng.integers(4)
    if kind == 0:
        b = np.eye(d, dtype=np.complex128)
    elif kind == 1 and d == 6:
        b = make_Ftilde(*rng.uniform(0, 2 * np.pi, 2))
    else:
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = np.linalg.qr(z)[0]
    i, j = rng.choice(d, 2, replace=False)
    change = rng.integers(5)
    if change == 2:
        # A copies the duplicated B, so some columns of A match two of B.
        b = b.copy()
        b[:, i] = b[:, j]
    a = b[:, rng.permutation(d)] * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
    if change == 1:
        a[:, i] = a[:, j] * np.exp(1j * rng.uniform(0, 2 * np.pi))
    elif change == 3:
        a = a + 1e-11 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / 2
    elif change == 4:
        a[i, j] *= np.exp(1e-3j)
    return a, b


def test_same_basis_up_to_phase_matches_backtracking_reference():
    rng = np.random.default_rng(2024)
    found = 0
    for n in range(2200):
        a, b = _matcher_case(rng, (3, 6)[n % 2])
        got = same_basis_up_to_phase(a, b)
        assert got == _backtracking_reference(a, b)
        found += got is not None
    # Both outcomes are well represented in the mix.
    assert 550 < found < 1650
