"""Smoke test of the benchmark itself: every workload once at a tiny size.

Usage: python3 perfbench/smoke.py

For each workload it makes one untraced and one traced tiny run, then
checks that no report failed, that the metric names are exactly those in
BENCHMARK.json, that spans nest, that every self time is >= 0, and that a
traced report's self times sum to no more than its wall time.  Exits 1 on
the first problem.  Takes about half a minute.
"""
from __future__ import annotations

import json
import sys

import run as bench
import tracer as tr
from workloads import ROOT, WORKLOADS


def fail(msg: str) -> None:
    sys.exit(f"smoke: {msg}")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        False: [m["name"] for m in spec["end_to_end"]],
        True: [m["name"] for m in spec["per_layer"]],
    }
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for name in WORKLOADS:
        for traced in (False, True):
            res = bench.run(name, seed=1, seconds=1e-3, traced=traced, tiny=True)
            label = f"{name} {'traced' if traced else 'untraced'}"
            for row in res["rows"]:
                if row["problems"]:
                    fail(f"{label}: report failed: {row['problems']}")
            if sorted(res["metrics"]) != sorted(want[traced]):
                fail(f"{label}: metrics {sorted(res['metrics'])} != {sorted(want[traced])}")
            if not traced:
                continue
            tracer = res["tracer"]
            errors = tr.nesting_errors(tracer.spans)
            if errors:
                fail(f"{label}: spans do not nest: {errors[:5]}")
            for row in res["rows"]:
                if not row["traced"]:
                    continue
                selfs = tr.self_times(tracer.report_spans(row["report"]))
                if min(selfs.values()) < 0:
                    fail(f"{label}: negative self time")
                if not 0 < sum(selfs.values()) <= row["wall"]:
                    fail(f"{label}: self times sum to {sum(selfs.values())}, "
                         f"report wall {row['wall']}")
            calls = res["metrics"]["sampling.haar_sample.calls"][0]
            if calls != res["workload"].replicas:
                fail(f"{label}: {calls} sampling spans for {res['workload'].replicas} replicas")
            print(f"smoke: {label} ok, {len(tracer.spans)} spans, "
                  f"self/wall {res['metrics']['trace.self_sum_frac'][0]:.4f}")
    print("smoke: all workloads ok")


if __name__ == "__main__":
    main()
