"""Smoke self-test of the benchmark: tiny budgets, one run per workload and
trace setting.

    python3 perfbench/selftest.py

Asserts that every metric BENCHMARK.json names is printed with its unit,
that no operation failed (fail_ratio 0), and that the benchmark refuses to
run, without printing a result, in a directory holding only BENCHMARK.json
and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 180


def _run(spec: dict, cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *spec["command"][1:], *extra], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT_S)


def check_workload(spec: dict, workload: str, trace: int) -> None:
    proc = _run(spec, ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted, f"{workload} trace {trace}: metrics {got} != {wanted}"
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}, (name, metric)
        assert isinstance(metric["value"], (int, float)), (name, metric)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values()), result["metrics"]
    print(f"ok  {workload:16s} trace={trace}  attempted={result['attempted']}  "
          f"fail_ratio={result['failed'] / result['attempted']:g}  "
          + "  ".join(f"{n}={m['value']:.4g} {m['unit']}" for n, m in result["metrics"].items()
                      if not trace or n.startswith(("search.find", "cli.self", "trace."))))


def check_bare_directory(spec: dict) -> None:
    """Without the sources next to it the benchmark must fail, not measure."""
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        workload = spec["workloads"][0]["name"]
        proc = _run(spec, bare, "--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", "0")
        assert proc.returncode != 0, "benchmark ran without the sources"
        assert '"metrics"' not in proc.stdout, proc.stdout
        print(f"ok  bare directory: exit {proc.returncode}, {proc.stderr.strip()}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_workload(spec, workload, trace)
    check_bare_directory(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
