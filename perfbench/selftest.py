"""Self-test of the benchmark at its smallest size.

    python3 perfbench/selftest.py

Checks self-time arithmetic on hand-made spans, then runs every workload
untraced and traced with ``workloads.SMALL`` and checks that each run passes
its output checks and emits exactly the metrics ``BENCHMARK.json`` names,
with their units.  Then runs ``prep`` against a wrong stored digest and
checks that the mismatch is counted as a failure.  Exits 1 on any problem.
"""

from __future__ import annotations

import json
import logging
import math
import sys

import run as entry
import tracing


def metric_problems(label: str, emitted: dict, declared: dict) -> list[str]:
    problems = []
    if set(emitted) != set(declared):
        missing = sorted(set(declared) - set(emitted))
        extra = sorted(set(emitted) - set(declared))
        problems.append(f"{label}: missing {missing}, unexpected {extra}")
    for name, (value, unit) in emitted.items():
        if name in declared and unit != declared[name]:
            problems.append(f"{label}: {name} has unit {unit!r}, BENCHMARK.json says {declared[name]!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} = {value!r} is not a finite number")
    return problems


def main() -> int:
    entry.pin_threads()
    entry.import_package()
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    import workloads

    spec = json.loads((entry.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems: list[str] = []
    # a.x covers 0-100 ns and calls b.y twice (10-40, 50-60); b.y calls c.z once (15-25).
    spans = [["a.x", 0, 100, -1, "r"], ["b.y", 10, 40, 0, "r"], ["c.z", 15, 25, 1, "r"], ["b.y", 50, 60, 0, "r"]]
    summary = tracing.SpanSummary(spans)
    observed = (summary.self_ns["a.x"], summary.self_ns["b.y"], summary.calls["b.y"], summary.layer_self_ns["c"])
    if observed != (60, 30, 2, 10):
        problems.append(f"self time of hand-made spans: {observed}, expected (60, 30, 2, 10)")
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            label = f"{workload} trace={int(trace)}"
            run = entry.execute(workload, seed=3, seconds=0, trace=trace, size_name="small")
            emitted = run.layers if trace else run.metrics
            problems += metric_problems(label, emitted, declared[trace])
            problems += [f"{label}: {failure}" for failure in run.failures]
            print(f"{label}: {run.attempted} operations, {len(run.failures)} failed, {len(emitted)} metrics")

    wrong = dict(workloads.EXPECTED["small"], prep_normalized_sha256="0" * 64)
    run = entry.execute("prep", seed=3, seconds=0, trace=False, size_name="small", expected=wrong)
    if not any("normalized corpus digest" in failure for failure in run.failures):
        problems.append("a wrong normalized-corpus digest was not counted as a failure")
    print(f"prep with a wrong digest: {len(run.failures)} failed")

    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
