"""Benchmark for rxnseq: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {prep,train,infer} --seed N --seconds S --trace {0,1}

Builds inputs from ``--seed``, sets up, measures for ``--seconds`` of
measured time and checks every output.  Standard output ends with one JSON
line: ``correct``, ``attempted``, ``failed`` and ``metrics``, where metrics
are the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0`` and its
per-layer metrics with ``--trace 1``.  The lines before it give the
environment, every failure and the workload's own detail metrics.  The full
record, and with ``--trace 1`` every span, is written under
``.bench_build/perfbench/`` in the checkout.

``RXNSEQ_THREADS`` (default 1) sets the BLAS thread count; it is applied
before numpy is imported.  The package is imported from ``src/`` of the
checkout holding this directory; without it the run fails with exit 1.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("prep", "train", "infer"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_threads() -> str:
    """Set the BLAS thread count from RXNSEQ_THREADS; must run before numpy loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread count was set")
    threads = os.environ.get("RXNSEQ_THREADS", "1")
    if not threads.isdigit() or int(threads) < 1:
        raise SystemExit(f"RXNSEQ_THREADS must be a positive integer, got {threads!r}")
    os.environ["RXNSEQ_THREADS"] = threads
    for name in THREAD_VARIABLES:
        os.environ[name] = threads
    return threads


def import_package():
    src = ROOT / "src"
    if not (src / "rxnseq" / "__init__.py").is_file():
        raise SystemExit(f"error: no rxnseq package under {src}")
    sys.path.insert(0, str(src))
    import rxnseq

    if Path(rxnseq.__file__).resolve().parent != (src / "rxnseq").resolve():
        raise SystemExit(f"error: imported rxnseq from {rxnseq.__file__}, not {src}")


def execute(workload: str, seed: int, seconds: float, trace: bool, size_name: str = "full", expected=None):
    """Run one workload in this process; returns the finished ``workloads.Run``."""
    import environment
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    size = {"full": workloads.FULL, "small": workloads.SMALL}[size_name]
    with tempfile.TemporaryDirectory(prefix=f"work-{workload}-", dir=OUT) as work:
        run = workloads.Run(seed, seconds, trace, size, Path(work), expected)
        workloads.WORKLOADS[workload](run)
    if trace:
        workloads.layer_metrics(run)
    run.metrics["peak_rss_mb"] = (environment.peak_rss_mb(), "MB")
    return run


def _as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    import_package()
    # Quiet the package's INFO logging (cli.main would set it up on first use).
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(levelname)s %(message)s")
    import environment

    run = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment.record(ROOT, args.seed, THREAD_VARIABLES)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if run.trace:
        run.tracer.write(OUT / f"{stem}.spans.tsv")
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "fail_ratio": len(run.failures) / run.attempted,
        "failures": run.failures,
        "metrics": _as_json(run.metrics),
        "detail": _as_json(run.report),
        "layers": _as_json(run.layers),
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print("environment " + json.dumps(env, sort_keys=True))
    for failure in run.failures:
        print(f"FAILED {failure}")
    print(f"fail_ratio {record['fail_ratio']:.6g} ratio ({len(run.failures)}/{run.attempted})")
    for name, (value, unit) in {**run.metrics, **run.report, **run.layers}.items():
        print(f"{name} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not run.failures,
                "attempted": run.attempted,
                "failed": len(run.failures),
                "metrics": _as_json(run.layers if run.trace else run.metrics),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
