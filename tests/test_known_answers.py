"""Known answers from closed forms, not from this repo's own search: the
vectors MU to {I, F_d}, with F_d the d x d Fourier matrix. For d = 2 they are
(1, +-i)/sqrt(2); for an odd prime d they include the d(d - 1) Gauss vectors
omega^{a k^2 + b k}/sqrt(d) (a = 1..d-1, b = 0..d-1, omega = e^{2 pi i/d}),
whose overlaps with the Fourier columns are Gauss sums of modulus sqrt(d). For
d = 2, 3 and 5 the search must list these and no others; for d = 7 it lists
532 vectors, the 42 Gauss vectors among them."""

import numpy as np
import pytest

from mub6 import Basis, MUPair, SearchConfig, find_mu_vectors

from test_answers import _unmatched


def fourier_pair(d):
    k = np.arange(d)
    return MUPair(Basis(np.eye(d, dtype=complex)), Basis(np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)))


def closed_form(d):
    if d == 2:
        return np.array([[1, 1j], [1, -1j]]) / np.sqrt(2)
    k = np.arange(d)
    return np.array([np.exp(2j * np.pi * (a * k * k + b * k) / d) / np.sqrt(d)
                     for a in range(1, d) for b in range(d)])


@pytest.mark.parametrize("d", [2, 3, 5])
def test_small_fourier_pairs_give_exactly_the_closed_form(d):
    got = find_mu_vectors(fourier_pair(d), SearchConfig(restarts=20000, master_seed=0))
    found, expected = np.stack(got.vectors), closed_form(d)
    assert (len(found), got.saturated) == (len(expected), True)
    assert (_unmatched(found, expected), _unmatched(expected, found)) == (0, 0)


def test_fourier7_contains_every_gauss_vector_at_two_seeds():
    # At a cap of 20,000 the search lists all 532 vectors at either seed and
    # saturates well before the cap. That comes from the orbit stop: the
    # 588 symmetries of {I, F7} split the 532 into three orbits (294, 196
    # and the 42 Gauss vectors), each with a basin of at least 0.17, and the
    # stop asks 16 hits of each orbit, not of each vector, whose rarest
    # basins are about 0.08%.
    found = [find_mu_vectors(fourier_pair(7), SearchConfig(restarts=20000, master_seed=s)) for s in (0, 7)]
    runs = [np.stack(got.vectors) for got in found]
    assert [len(v) for v in runs] == [532, 532]
    assert all(got.saturated and got.restarts_run < 20000 for got in found)
    assert _unmatched(closed_form(7), runs[0]) == 0
    assert (_unmatched(runs[0], runs[1]), _unmatched(runs[1], runs[0])) == (0, 0)
