import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def test_summarize_ranges_numbers_and_counts_text_per_family():
    digests = [
        {"family": "P2", "digest": {"clusters": 90, "min_abs_overlap": 0.1545, "max_clique_size": 1}},
        {"family": "P0", "digest": {"clusters": 48, "min_abs_overlap": 1e-17, "max_clique_size": 6}},
        {"family": "P2", "digest": {"clusters": 90, "min_abs_overlap": 0.1544, "max_clique_size": 1}},
        {"family": "P1", "digest": {"fingerprint": "ab", "moves": 3}},
        {"family": "P1", "digest": {"fingerprint": "cd", "moves": 3}},
        {"family": "P1", "digest": None},
        # A search that fails lists fewer than two clusters: no min overlap.
        {"family": "P2", "digest": {"clusters": 1, "min_abs_overlap": None, "max_clique_size": 1}},
        {"family": "P3", "digest": {"clusters": 0, "min_abs_overlap": None, "max_clique_size": 0}},
    ]
    assert bench_record.summarize(digests) == {
        "P0": {"clusters": [48, 48], "max_clique_size": [6, 6], "min_abs_overlap": [1e-17, 1e-17]},
        "P1": {"fingerprint": 2, "moves": [3, 3]},
        "P2": {"clusters": [1, 90], "max_clique_size": [1, 1], "min_abs_overlap": [0.1544, 0.1545]},
        "P3": {"clusters": [0, 0], "max_clique_size": [0, 0], "min_abs_overlap": None},
    }


def test_code_lines_skips_docstrings_comments_and_blanks():
    source = '''"""Module docstring,
over two lines."""

import math  # a comment on a code line


# A comment line.
class Point:
    """Class docstring."""

    x: float = 1.0

    def norm(self):
        """Function docstring,

        with a blank line inside."""
        text = """a string that
        is not a docstring"""
        return math.hypot(
            self.x,
            len(text),
        )
'''
    # import, class, x, def, the two lines of text and the four of return.
    assert bench_record.code_lines(source) == 10
