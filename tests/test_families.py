import numpy as np
import pytest

from mub6 import (
    EQ_TOL,
    FamilyParams,
    ParameterRangeError,
    hw_eigenbasis,
    is_mu_pair,
    is_unitary,
    make_family_pair,
    make_Ftilde,
    make_Itilde,
    make_R,
    make_S,
    same_basis_up_to_phase,
    validate_family_params,
)

RNG = np.random.default_rng(42)


def sample_params(family, rng):
    if family == "P1":
        while True:
            xi, eta = rng.uniform(0, 2 * np.pi, 2)
            if (xi, eta) != (0.0, 0.0):
                return FamilyParams(xi=xi, eta=eta)
    if family == "P3":
        zeta, chi = rng.uniform(0, 2 * np.pi, 2)
        sigma, tau = rng.uniform(1e-6, np.pi - 1e-6, 2)
        return FamilyParams(zeta=zeta, chi=chi, sigma=sigma, tau=tau)
    return None


def test_make_R():
    assert np.array_equal(make_R(0.0, 0.0), np.eye(3))
    assert np.abs(make_R(np.pi, 0.0) - np.diag([1, -1, 1])).max() < 1e-15
    r = make_R(1.3, 5.0)
    assert is_unitary(r)
    assert np.array_equal(r, np.diag(np.diag(r)))


def test_make_S_identity_and_diagonality():
    assert np.abs(make_S(0.0, 0.0) - np.eye(3)).max() < 1e-15
    f3 = hw_eigenbasis(3, "x").matrix
    rng = np.random.default_rng(1)
    for _ in range(25):
        zeta, chi = rng.uniform(0, 2 * np.pi, 2)
        s = make_S(zeta, chi)
        assert is_unitary(s)
        diag = f3.conj().T @ s @ f3
        expected = np.diag([1.0, np.exp(1j * zeta), np.exp(1j * chi)])
        assert np.abs(diag - expected).max() <= EQ_TOL


def test_make_S_circulant_coefficient_relations():
    rng = np.random.default_rng(2)
    for _ in range(25):
        zeta, chi = rng.uniform(0, 2 * np.pi, 2)
        s = make_S(zeta, chi)
        a, b, c = s[0, 0], s[0, 1], s[0, 2]
        # Circulant structure.
        assert np.abs(s - np.array([[a, b, c], [c, a, b], [b, c, a]])).max() < 1e-15
        # Unitarity of a circulant in terms of its coefficients.
        assert abs(abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 - 1.0) <= EQ_TOL
        assert abs(a * b.conjugate() + b * c.conjugate() + c * a.conjugate()) <= EQ_TOL


def test_make_S_at_p2_point_matches_phased_y_basis():
    s = make_S(4 * np.pi / 3, 4 * np.pi / 3)
    hy = hw_eigenbasis(3, "y").matrix
    assert same_basis_up_to_phase(s, -1j * hy) is not None


def test_make_Ftilde_structure():
    ft = make_Ftilde(0.0, 0.0)
    inv_sqrt6 = 1 / np.sqrt(6)
    assert abs(ft[0, 0] - inv_sqrt6) < 1e-15
    assert np.abs(np.abs(ft) - inv_sqrt6).max() < 1e-15
    f3 = hw_eigenbasis(3, "x").matrix
    s2 = np.sqrt(2.0)
    assert np.abs(ft[3:, :3] - f3 / s2).max() < 1e-15   # lower-left block +F3
    assert np.abs(ft[3:, 3:] + f3 / s2).max() < 1e-15   # lower-right block -F3
    rng = np.random.default_rng(4)
    for _ in range(25):
        xi, eta = rng.uniform(0, 2 * np.pi, 2)
        m = make_Ftilde(xi, eta)
        assert np.abs(np.abs(m) - inv_sqrt6).max() <= EQ_TOL  # Hadamard
        assert is_mu_pair(np.eye(6), m).ok


def test_make_Itilde():
    assert np.abs(make_Itilde(0.0, 0.0) - np.eye(6)).max() < 1e-15
    rng = np.random.default_rng(5)
    for _ in range(10):
        zeta, chi = rng.uniform(0, 2 * np.pi, 2)
        m = make_Itilde(zeta, chi)
        assert is_unitary(m)
        assert np.array_equal(m[:3, :3], np.eye(3))
        assert np.abs(m[:3, 3:]).max() == 0.0
        assert np.abs(m[3:, :3]).max() == 0.0
    angle = 4 * np.pi / 3
    p2_first = make_family_pair("P2").first
    assert same_basis_up_to_phase(make_Itilde(angle, angle), p2_first) is not None


def test_param_validation():
    with pytest.raises(ParameterRangeError):
        validate_family_params("P1", FamilyParams(xi=0.0, eta=0.0))
    with pytest.raises(ParameterRangeError):
        validate_family_params("P1", FamilyParams(xi=1.0))
    with pytest.raises(ParameterRangeError):
        validate_family_params("P1", FamilyParams(xi=7.0, eta=1.0))
    with pytest.raises(ParameterRangeError):
        validate_family_params("P0", FamilyParams(xi=1.0, eta=1.0))
    with pytest.raises(ParameterRangeError):
        validate_family_params("P3", FamilyParams(zeta=0.1, chi=0.2, sigma=0.0, tau=1.0))
    with pytest.raises(ParameterRangeError):
        validate_family_params("P3", FamilyParams(zeta=0.1, chi=0.2, sigma=np.pi, tau=1.0))
    with pytest.raises(ParameterRangeError):
        validate_family_params("P9", None)
    validate_family_params("P2", None)
    validate_family_params("P3", FamilyParams(zeta=0.0, chi=0.0, sigma=0.5, tau=0.5))


def test_family_pairs_are_mu():
    rng = np.random.default_rng(6)
    for family in ("P0", "P1", "P2", "P3"):
        for _ in range(20):
            pair = make_family_pair(family, sample_params(family, rng))
            check = is_mu_pair(pair.first, pair.second)
            assert check.ok, f"{family}: worst deviation {check.worst_deviation}"
            assert pair.family == family


def test_family_pair_examples():
    p0 = make_family_pair("P0")
    assert np.array_equal(p0.first.matrix, np.eye(6))
    assert np.abs(p0.second.matrix - make_Ftilde(0.0, 0.0)).max() < 1e-15

    with pytest.raises(ParameterRangeError):
        make_family_pair("P1", FamilyParams(xi=0.0, eta=0.0))

    p3 = make_family_pair("P3", FamilyParams(zeta=0.0, chi=0.0, sigma=np.pi / 2, tau=np.pi / 2))
    assert np.abs(p3.first.matrix - np.eye(6)).max() < 1e-15
    assert np.abs(p3.second.matrix - make_Ftilde(np.pi / 2, np.pi / 2)).max() < 1e-15


def test_p1_second_member_is_transposed_ftilde():
    rng = np.random.default_rng(7)
    for _ in range(5):
        params = sample_params("P1", rng)
        pair = make_family_pair("P1", params)
        assert np.array_equal(
            pair.second.matrix, make_Ftilde(params.xi, params.eta).T
        )


def test_p2_second_member_blocks():
    pair = make_family_pair("P2")
    f3 = hw_eigenbasis(3, "x").matrix
    hw = hw_eigenbasis(3, "w").matrix
    s2 = np.sqrt(2.0)
    m = pair.second.matrix
    assert np.abs(m[:3, :3] - f3 / s2).max() < 1e-14
    assert np.abs(m[:3, 3:] - hw / s2).max() < 1e-14
    assert np.abs(m[3:, :3] - f3 / s2).max() < 1e-14
    assert np.abs(m[3:, 3:] + hw / s2).max() < 1e-14


def test_state_label_names():
    p0 = make_family_pair("P0")
    first, second = p0.first.labels, p0.second.labels
    assert [l.name for l in first[:3]] == ["|0_z,0_z>", "|0_z,1_z>", "|0_z,2_z>"]
    assert all("_x>" in l.name for l in second)
    second_p2 = make_family_pair("P2").second.labels
    assert [l.name for l in second_p2[3:]] == ["|1_x,0_w>", "|1_x,1_w>", "|1_x,2_w>"]
    hw = hw_eigenbasis(3, "w").matrix
    for J, label in enumerate(second_p2[3:]):
        assert np.abs(label.factor3 - hw[:, J]).max() < 1e-15


def test_every_label_name():
    # The names `construct` writes, for all 48 columns of P0-P3.
    zs = [f"|0_z,{J}_z>" for J in range(3)]
    xs = [f"|0_x,{J}_x>" for J in range(3)]
    names = {
        "P0": (zs + ["|1_z,0_z>", "|1_z,1_z>", "|1_z,2_z>"], xs + ["|1_x,0_x>", "|1_x,1_x>", "|1_x,2_x>"]),
        "P1": (zs + ["|1_z,0_z>", "|1_z,1_z>", "|1_z,2_z>"], xs + ["|1_x,R0_x>", "|1_x,R1_x>", "|1_x,R2_x>"]),
        "P2": (zs + ["|1_z,0_y>", "|1_z,1_y>", "|1_z,2_y>"], xs + ["|1_x,0_w>", "|1_x,1_w>", "|1_x,2_w>"]),
        "P3": (
            zs + ["|1_z,S0_z>", "|1_z,S1_z>", "|1_z,S2_z>"],
            ["|0_x,0_x>", "|r(sigma)0_x,1_x>", "|r(tau)0_x,2_x>"]
            + ["|1_x,0_x>", "|r(sigma)1_x,1_x>", "|r(tau)1_x,2_x>"],
        ),
    }
    rng = np.random.default_rng(3)
    for family, (first, second) in names.items():
        pair = make_family_pair(family, sample_params(family, rng))
        assert [l.name for l in pair.first.labels] == first
        assert [l.name for l in pair.second.labels] == second


def test_pair_labels_reproduce_columns():
    rng = np.random.default_rng(9)
    for family in ("P0", "P1", "P2", "P3"):
        pair = make_family_pair(family, sample_params(family, rng))
        for member in (pair.first, pair.second):
            assert member.labels is not None
            for k, label in enumerate(member.labels):
                assert np.abs(label.vector() - member.matrix[:, k]).max() <= EQ_TOL
