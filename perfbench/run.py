"""mub6 benchmark: time the `mub6` CLI end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs `src/mub6`). Each run
times interpreter start plus `import numpy, mub6.cli` in fresh processes
(`setup_s`), before and after one workload process (worker.py) that draws
its inputs from --seed and calls `mub6.cli.run` in process for --seconds,
one round after another. One process, one round at a time: a closed loop
with a single client. Every time metric is scaled by the host's speed,
measured alongside it (hostspeed.py); the record keeps the raw times too.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. The full record (quartiles, tail
percentile and sample count, result digests, failures, machine facts) goes
to `.perfbench_work/results/`, and the spans of a traced run beside it.
See NOTES.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 4  # before the workload process, and as many again after it
DEADLINE_S = 170.0

# Spawn to `import numpy, mub6.cli`, less the host-speed factor measured
# between them, which scales the probe's time.
PROBE = """import time
t0 = time.monotonic()
import hostspeed
host = hostspeed.factor([hostspeed.reference() for _ in range(8)])
t1 = time.monotonic()
import numpy, mub6.cli
print(repr(t0), repr(t1), repr(time.monotonic()), repr(host))
"""

class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH")) if p)
    return env


def _remaining(start: float) -> float:
    left = DEADLINE_S - (time.monotonic() - start)
    if left <= 1.0:
        raise BenchError("out of time")
    return left


def setup_seconds(count: int, start: float) -> list[tuple[float, float]]:
    """(raw, scaled) seconds from process spawn until numpy and mub6.cli are
    imported, once per probe."""
    samples = []
    for _ in range(count):
        spawn = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=_env(),
                              capture_output=True, text=True,
                              timeout=min(60.0, _remaining(start)))
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        t0, t1, imported, host = map(float, proc.stdout.split())
        raw = (t0 - spawn) + (imported - t1)
        samples.append((raw, raw / host))
    return samples


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the p90 time, or of the median (p50) when fewer
    than ten samples lie beyond p90.

    p90 and not p99: on a shared 2-core host the p99 of a 30 s run follows
    the host's bursts and moved by 24% of its median across seeds, p90 by 12%.
    """
    ordered = sorted(values)
    beyond = len(ordered) // 10
    if beyond >= 10:
        return ordered[len(ordered) - beyond - 1], 90.0
    return statistics.median(ordered), 50.0


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def run(args: argparse.Namespace, spec: dict) -> dict:
    start = time.monotonic()
    if not (SRC / "mub6" / "__init__.py").is_file():
        raise BenchError(f"no mub6 sources at {SRC}; run from the root of a source checkout")
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        probes = 1 if args.smoke else SETUP_PROBES
        setup = setup_seconds(probes, start)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--tmp", tmp]
        if args.trace:
            cmd += ["--spans", str(results_dir / f"{stem}-spans.json")]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=_remaining(start))
        # Probes at both ends of the run see the host's speed at both ends.
        if proc.returncode == 0:
            setup += setup_seconds(probes, start)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {exc}") from exc
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"workload process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    worker = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(worker["mub6_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"imported mub6 from {worker['mub6_file']}, not from {SRC}")

    plain = [r["wall_s"] for r in worker["rounds"] if not r["traced"]]
    tail_ms, tail_pct = tail(worker["point_ms"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "load": "closed loop, one client, one workload process",
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "fail_ratio": worker["failed"] / worker["attempted"],
        "wall_s_quartiles": quartiles(plain),
        "raw_wall_s_quartiles": quartiles([r["raw_wall_s"] for r in worker["rounds"]
                                           if not r["traced"]]),
        "host_factor_quartiles": quartiles([r["host_factor"] for r in worker["rounds"]]),
        "point_ms_quartiles": quartiles(worker["point_ms"]),
        "point_ms_tail": {"value": tail_ms, "percentile": tail_pct,
                          "samples": len(worker["point_ms"])},
        "setup_s_samples": [scaled for _, scaled in setup],
        "raw_setup_s_samples": [raw for raw, _ in setup],
        **{k: worker[k] for k in ("rounds", "failures", "digests", "machine", "peak_rss_mb")},
    }
    if args.trace:
        values = worker["layers"]
    else:
        values = {
            "wall_s": statistics.median(plain),
            "setup_s": statistics.median(scaled for _, scaled in setup),
            "point_ms_p50": statistics.median(worker["point_ms"]),
            "point_ms_tail": tail_ms,
            "peak_rss_mb": worker["peak_rss_mb"],
        }
    # Every metric BENCHMARK.json names, in its order; a missing value is an error.
    record["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in spec["per_layer" if args.trace else "end_to_end"]}
    with open(results_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets and one set-up probe, for selftest.py")
    args = parser.parse_args(argv)
    try:
        record = run(args, spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    wq, rq = record["wall_s_quartiles"], record["raw_wall_s_quartiles"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"wall_s quartiles {wq[0]:.4f} / {wq[1]:.4f} / {wq[2]:.4f} "
          f"(raw {rq[0]:.4f} / {rq[1]:.4f} / {rq[2]:.4f}, host factor "
          f"{record['host_factor_quartiles'][1]:.3f}) over "
          f"{sum(not r['traced'] for r in record['rounds'])} rounds; "
          f"tail p{record['point_ms_tail']['percentile']:g} of "
          f"{record['point_ms_tail']['samples']} points; "
          f"fail_ratio {record['fail_ratio']:.4g} ({record['failed']}/{record['attempted']})")
    for failure in record["failures"][:5]:
        print(f"FAILED: {json.dumps(failure)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
