"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py                        # every workload, seed 1
    python3 perfbench/spread.py --seeds 1-10 --save a.json
    python3 perfbench/spread.py --seeds 1-10 --against a.json

For each workload and metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and their distance as a share
of the median, next to the bound in BENCHMARK.json. With --against it also
prints how far each median moved from a saved set of runs, and flags a
metric that got worse by more than its bound. Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=_seeds, default=[1], help="e.g. 1-10 or 3,5")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save", type=Path, default=None, help="write the values as JSON")
    parser.add_argument("--against", type=Path, default=None, help="values saved by --save")
    args = parser.parse_args(argv)

    values: dict[str, dict[str, list[float]]] = {}
    failed = 0
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                failed += 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"fail_ratio={result['failed'] / result['attempted']:g} ({result['attempted']} ops) "
                  + " ".join(f"{n}={m['value']:.5g}{m['unit']}" for n, m in result["metrics"].items()),
                  flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(metric["value"])

    before = json.loads(args.against.read_text(encoding="utf-8")) if args.against else {}
    print(f"\n{'workload':16s} {'metric':14s} {'unit':5s} {'median':>11s} {'q1':>11s} "
          f"{'q3':>11s} {'spread':>7s} {'bound':>6s}" + ("  change" if before else ""))
    for workload, metrics in values.items():
        for m in spec["end_to_end"]:
            vals = metrics.get(m["name"], [])
            if not vals:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            line = (f"{workload:16s} {m['name']:14s} {m['unit']:5s} {med:11.5g} {q1:11.5g} "
                    f"{q3:11.5g} {(q3 - q1) / med:7.3f} {m['bound']:6.2f}")
            old = before.get(workload, {}).get(m["name"])
            if old:
                change = med / statistics.median(old) - 1.0
                worse = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
                line += f"  {change:+.3f}" + ("  WORSE THAN BOUND" if worse else "")
            print(line)
    if args.save:
        args.save.write_text(json.dumps(values, indent=1), encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
