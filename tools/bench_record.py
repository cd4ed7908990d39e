"""Record the benchmark of this checkout as BENCH_<n>.json at the repository root.

    python3 tools/bench_record.py N

Runs `perfbench/run.py --trace 0` once for each workload that BENCHMARK.json
lists, at seed SEED and for the benchmark's `run_seconds` each, so that every
record is made the same way, then reads the record each run leaves in
`.perfbench_work/results/` and writes BENCH_<N>.json (N numbers the record in
the trajectory). The file holds, per workload, the end-to-end metrics with the
points attempted and failed and the wall time quartiles, and the digest of the
results: for each family, the range of every numeric digest field over the
points (clusters, min overlap, clique size, ...) and the number of distinct
values of every text field (fingerprints). It also holds the source line count
that run.py records, the code lines of `src/mub6/*.py` (no docstrings, comments
or blank lines), and the machine facts. Timings move with the host; compare only
records made alternately on one host.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".perfbench_work" / "results"
SRC = ROOT / "src" / "mub6"
SEED = 7


def _span(values: list):
    """[min, max] of numbers, the count of distinct strings, None if empty."""
    if not values:
        return None
    if isinstance(values[0], str):
        return len(set(values))
    return [min(values), max(values)]


def code_lines(source: str) -> int:
    """The lines of Python source that hold a token other than a comment, a
    newline or an indent, leaving out the docstrings of the module and of its
    classes and functions (found with ast)."""
    docs, owners = [], (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, owners) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docs.append(((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset)))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in layout and not any(lo <= tok.start and tok.end <= hi for lo, hi in docs):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def summarize(digests: list[dict]) -> dict:
    """Per family, [min, max] of each numeric digest field over the points and
    the count of distinct values of each text field. A field that is None at a
    point (no overlap among fewer than two clusters) is left out there, and is
    None for the family if it is None at every point."""
    fields: dict[str, dict[str, list]] = {}
    for entry in digests:
        for key, value in (entry["digest"] or {}).items():
            values = fields.setdefault(entry["family"], {}).setdefault(key, [])
            if value is not None:
                values.append(value)
    return {
        family: {key: _span(values) for key, values in sorted(by_key.items())}
        for family, by_key in sorted(fields.items())
    }


def run_workload(name: str, seconds: float) -> dict:
    """Run one workload through run.py and return the record it leaves."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{name}: perfbench/run.py exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads((RESULTS / f"{name}-seed{SEED}-trace0.json").read_text(encoding="utf-8"))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("n", type=int, help="number of the record: writes BENCH_<n>.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    records = {w["name"]: run_workload(w["name"], spec["run_seconds"]) for w in spec["workloads"]}
    machine = dict(next(iter(records.values()))["machine"])
    out = {
        "seed": SEED,
        "seconds": spec["run_seconds"],
        "src_lines": machine.pop("src_lines"),
        "code_lines": sum(code_lines(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")),
        "machine": machine,
        "workloads": {
            name: {
                "metrics": {key: metric["value"] for key, metric in record["metrics"].items()},
                "attempted": record["attempted"],
                "failed": record["failed"],
                "wall_s_quartiles": record["wall_s_quartiles"],
                "digest": summarize(record["digests"]),
            }
            for name, record in records.items()
        },
    }
    path = ROOT / f"BENCH_{args.n}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
