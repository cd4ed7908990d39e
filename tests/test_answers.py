"""The search's answers, not its bytes: the vectors found MU to four pairs
match tests/answers.json up to global phase, and so do their orthogonality
graphs. Hits, residual digits and the order of near-ties are search metadata
and are not compared. Regenerate the file with tests/make_answers.py."""

import json

import numpy as np
import pytest

from mub6 import SearchConfig, find_extension_basis

from make_answers import PAIRS, PATH, SEED

TOL = 1e-9
# Small budgets that find every vector: S6 at 2k restarts, the others at 1k.
BUDGETS = {name: 2000 if name == "S6" else 1000 for name in PAIRS}

with open(PATH) as fh:
    ANSWERS = json.load(fh)["pairs"]


def _vectors(listed):
    return np.array(listed).view(np.complex128)[..., 0]


def _unmatched(a, b):
    """How many rows of a (n, d) have no row of b (m, d) within TOL, by the
    distance that clusters use, min_theta |u - e^{i theta} v|. It is taken
    by turning v onto u, since sqrt(2 - 2 |<u|v>|) loses all digits below
    about 1e-8."""
    ip = a.conj() @ b.T
    turn = np.exp(-1j * np.angle(ip))
    dist = np.linalg.norm(a[:, None, :] - turn[:, :, None] * b[None, :, :], axis=2)
    return int(np.count_nonzero(dist.min(axis=1, initial=np.inf) >= TOL))


@pytest.mark.parametrize("name", PAIRS)
def test_search_finds_the_answers(name):
    want = ANSWERS[name]
    result = find_extension_basis(PAIRS[name][0](), SearchConfig(restarts=BUDGETS[name], master_seed=SEED))
    found, expected = np.stack(result.vectors.vectors), _vectors(want["vectors"])
    assert (_unmatched(found, expected), _unmatched(expected, found)) == (0, 0)
    assert len(result.graph.edges) == want["edges"]
    assert result.max_clique_size == want["max_clique_size"]
    assert abs(result.graph.min_abs_overlap - want["min_abs_overlap"]) <= TOL
    assert abs(result.graph.max_abs_overlap - want["max_abs_overlap"]) <= TOL


def test_matching_fails_on_a_dropped_or_moved_vector():
    for want in ANSWERS.values():
        vecs = _vectors(want["vectors"])
        turned = vecs * np.exp(1j * np.arange(len(vecs)))[:, None]
        assert (_unmatched(turned, vecs), _unmatched(vecs, turned)) == (0, 0)
        assert (_unmatched(vecs, vecs[1:]), _unmatched(vecs[1:], vecs)) == (1, 0)
        moved = vecs.copy()
        moved[3, 1] += 1e-6
        moved[3] /= np.linalg.norm(moved[3])
        assert (_unmatched(moved, vecs), _unmatched(vecs, moved)) == (1, 1)
