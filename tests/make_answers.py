"""Write tests/answers.json: the vectors MU to four pairs, and their
orthogonality graphs, as a reference that tests/test_answers.py matches up to
global phase rather than byte for byte.

Run from the repository root, on a clean tree:

    PYTHONPATH=src python tests/make_answers.py

The file names the commit it was generated from. Vectors are gauge-fixed
(largest-modulus component real positive) and rounded to 12 digits; overlaps
are rounded to 9.
"""

from __future__ import annotations

import json
import os
import subprocess

import numpy as np

from mub6 import SearchConfig, find_extension_basis, make_family_pair, reduce_P1, reduce_P2, reduce_P3

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "answers.json")
SEED = 0

# name: (pair builder, restarts used to generate the file)
PAIRS = {
    "S6": (lambda: reduce_P2()[0], 20000),
    "P0": (lambda: make_family_pair("P0"), 6000),
    "P1(0.7, 1.3) reduced": (lambda: reduce_P1(0.7, 1.3)[0], 6000),
    "P3(0.4, 1.1, 0.9, 2.0) reduced": (lambda: reduce_P3(0.4, 1.1, 0.9, 2.0)[0], 6000),
}


def answers(name: str, restarts: int) -> dict:
    """The answers of one pair's search: vectors, edges, overlaps, clique."""
    result = find_extension_basis(PAIRS[name][0](), SearchConfig(restarts=restarts, master_seed=SEED))
    return {
        "restarts": restarts,
        "vectors": [[[round(float(z.real), 12), round(float(z.imag), 12)] for z in v] for v in result.vectors.vectors],
        "edges": len(result.graph.edges),
        "min_abs_overlap": round(result.graph.min_abs_overlap, 9),
        "max_abs_overlap": round(result.graph.max_abs_overlap, 9),
        "max_clique_size": result.max_clique_size,
    }


def main() -> None:
    repo = os.path.dirname(os.path.dirname(PATH))
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, capture_output=True, text=True, check=True)
    data = {
        "commit": commit.stdout.strip(),
        "seed": SEED,
        "pairs": {name: answers(name, restarts) for name, (_, restarts) in PAIRS.items()},
    }
    with open(PATH, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
