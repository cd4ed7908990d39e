"""One workload process of the benchmark; started by run.py, never by hand.

Imports numpy and mub6, then runs rounds of the workload in process through
`mub6.cli.run`, exactly as the `mub6` entry point would, until --seconds have
passed. Prints one JSON object as its last line of standard output.

While a round is timed, hostspeed.Sampler measures the host's speed between
bytecodes; the round's times are reported raw and scaled by that speed.

With --trace 1 every odd round runs with spans recorded around the public
calls (see tracing.py) and even rounds run plain, so the traced wall time
can be set against the untraced one in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from mub6 import cli
from mub6.search import orthogonality_graph

import hostspeed
import tracing
from workloads import WORKLOADS


def _run_command(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return rc, out.getvalue(), err.getvalue()


def _run_point(point, tracer: tracing.Tracer | None) -> None:
    """Run a point's chain; like `a && b && c`, stop at the first failure."""
    for argv in point.argvs:
        span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
        with span:
            result = _run_command(argv)
        point.results.append(result)
        if result[0] != 0:
            return


def _check(workload, point) -> tuple[dict | None, list[str]]:
    """Reference check of one point; a check that raises is a failed point."""
    for argv, (rc, _, err) in zip(point.argvs, point.results):
        if rc != 0:
            return None, [f"`mub6 {argv[0]}` exited {rc}: {err.strip()[:300]}"]
    try:
        return workload.check(point)
    except Exception:  # noqa: BLE001 - recorded as a failed point, the run goes on
        return None, [traceback.format_exc(limit=3)[-600:]]


def _recall_orthogonality_graph(tracer: tracing.Tracer, first: int) -> None:
    """Time orthogonality_graph again on each search result of the round."""
    for sp in tracer.spans[first:]:
        result, sp.result = sp.result, None
        if sp.name == "search.find_extension_basis":
            tracer.point = sp.point
            with tracer.span("search.orthogonality_graph"):
                orthogonality_graph(result.vectors)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spans", default=None, help="where to write the spans (traced runs)")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.tmp, args.smoke)
    for command in workload.prepare():
        rc, _, err = _run_command(command)
        if rc != 0:
            raise SystemExit(f"input generation failed: mub6 {' '.join(command)}: {err}")

    tracer = tracing.Tracer() if args.trace else None
    min_rounds = 2 if args.trace else 1
    rounds, point_ms, digests, failures = [], [], [], []
    attempted = 0
    start = time.monotonic()
    k = 0
    while k < min_rounds or time.monotonic() - start < args.seconds:
        rng = random.Random(f"{args.workload}/{args.seed}/{k}")
        points = workload.round(rng, k)
        traced = tracer is not None and k % 2 == 1
        patch = tracer.patched() if traced else contextlib.nullcontext()
        first_span = len(tracer.spans) if tracer else 0
        with patch, hostspeed.Sampler() as sampler:
            t0 = time.perf_counter()
            for i, point in enumerate(points):
                if traced:
                    tracer.point = attempted + i
                p0 = time.perf_counter()
                _run_point(point, tracer if traced else None)
                point.ms = (time.perf_counter() - p0) * 1e3
            wall = time.perf_counter() - t0
        # One more sample after the clock stops, so a short round has one too.
        host = hostspeed.factor(sampler.samples + [hostspeed.reference()])
        if not traced:
            point_ms.extend(point.ms / host for point in points)
        rounds.append({"round": k, "traced": traced, "wall_s": wall / host,
                       "raw_wall_s": wall, "host_factor": host,
                       "host_samples": len(sampler.samples) + 1})
        if traced:
            _recall_orthogonality_graph(tracer, first_span)
        for point in points:
            digest, problems = _check(workload, point)
            digests.append({"round": k, "family": point.family, "params": point.params,
                            "raw_ms": point.ms, "digest": digest})
            if problems:
                failures.append({"round": k, "family": point.family, "params": point.params,
                                 "problems": problems})
        attempted += len(points)
        k += 1

    result = {
        "mub6_file": os.path.abspath(sys.modules["mub6"].__file__),
        "rounds": rounds,
        "point_ms": point_ms,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "digests": digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_facts(),
    }
    if tracer is not None:
        plain = [r["wall_s"] for r in rounds if not r["traced"]]
        traced_walls = [r["wall_s"] for r in rounds if r["traced"]]
        layers = tracing.layer_metrics(tracer.spans)
        layers["trace.wall_s"] = statistics.median(traced_walls)
        layers["trace.overhead"] = statistics.median(traced_walls) / statistics.median(plain) - 1.0
        result["layers"] = layers
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump([sp.to_json() for sp in tracer.spans], fh)
    print(json.dumps(result))
    return 0


def _blas_threads() -> int | None:
    """OpenBLAS thread count, read from the library numpy loaded (Linux)."""
    import ctypes

    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    """Facts recorded with every result; none of them is a gated metric."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = os.path.dirname(os.path.abspath(sys.modules["mub6"].__file__))
    lines = 0
    for root, _, names in os.walk(src):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as fh:
                    lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "threads": _blas_threads(),
            "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS") if k in os.environ},
        },
        "src_lines": lines,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
