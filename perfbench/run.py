"""haartrace benchmark: whole CLI reports, checked, timed in-process.

Usage:
    python3 perfbench/run.py --workload mc_bridge --seed 1 --seconds 36 --trace 0

Runs the workload's report (see `workloads.py`) repeatedly for about
`--seconds` seconds by calling `haartrace.cli.main` in this process, checks
every report, and prints one metric per line followed, as the last line, by
a JSON object {"correct", "attempted", "failed", "metrics"}.  With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` reports
alternate between untraced and traced, and the metrics are the per-layer
ones from the traced reports (spans go to `.bench_build/perfbench/`).
See README.md in this directory for what each metric means.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np

import tracer as tr
from workloads import OUT_DIR, ROOT, WORKLOADS, Simulate, build, check, import_haartrace, reference

SETUP_PROBES = 5
# Seconds of one speed unit on the nominal machine (a quiet 2-core VM).
NOMINAL_UNIT_S = 0.2


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

# On a host whose cores are shared with other tenants the same serial report
# runs up to 2 times slower for minutes at a time, while nothing in the
# process changes.  Times of single-threaded work (serial reports and the
# set-up probes) are therefore scaled to the nominal machine: a fixed unit of
# interpreter work that never touches the package is timed on the same thread
# before and after each timed interval, and the interval is multiplied by
# NOMINAL_UNIT_S over the mean of those two unit times.  Reports that keep
# both cores busy are left unscaled: they do not slow with the unit.

def speed_unit() -> float:
    """Seconds this process takes for a fixed unit of exact-rational and dict
    work (the instruction mix of the exact engine and of the estimators'
    Python loops) that never touches the package and allocates almost nothing."""
    t0 = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 80000):
        acc += Fraction(i % 97 + 1, i % 89 + 1)
        table[(i % 301, i % 7)] = acc
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that turns seconds measured between two speed units into
    nominal seconds."""
    return NOMINAL_UNIT_S / ((before + after) / 2)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "HAARTRACE_WORKERS")},
    }


def probe_setup(name: str, seed: int) -> list[tuple[float, float]]:
    """(seconds, scale) from launching a fresh process to its being ready, per probe."""
    cmd = [sys.executable, str(Path(__file__).with_name("probe.py")), name, str(seed)]
    probes = []
    unit = speed_unit()
    for _ in range(SETUP_PROBES):
        launched = time.time()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{done.stderr}")
        ready = float(done.stdout.split()[-1])
        after = speed_unit()
        probes.append((ready - launched, scale(unit, after)))
        unit = after
    return probes


def package_caches() -> list:
    """Every memoized function of the package, cleared before each report so
    a report pays its table builds as a fresh CLI process does."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "haartrace" or name.startswith("haartrace.")):
            for val in vars(mod).values():
                if callable(getattr(val, "cache_clear", None)):
                    found[id(val)] = val
    return list(found.values())


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

class Runner:
    """Runs and checks reports of one workload."""

    def __init__(self, wl, cli, tracer: tr.Tracer | None):
        self.wl = wl
        self.cli = cli
        self.tracer = tracer
        self.refs = [reference(c, cli.cm) for c in wl.commands]
        self.paths = [OUT_DIR / f"{wl.name}_{i}.json" for i in range(len(wl.commands))]
        self.bodies: list = [None] * len(wl.commands)
        self.caches = package_caches()
        self.traced_main = tracer.wrap(tr.ROOT_LAYER, cli.main) if tracer else None
        self.rows: list[dict] = []
        self.unit = speed_unit() if wl.serial else None

    def run(self, traced: bool) -> None:
        for cache in self.caches:
            cache.cache_clear()
        for path in self.paths:
            path.unlink(missing_ok=True)
        main = self.traced_main if traced else self.cli.main
        outcomes, err = [], io.StringIO()
        if traced:
            self.tracer.begin_report()
        t0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stderr(err):
            for cmd, path in zip(self.wl.commands, self.paths):
                try:
                    outcomes.append(main(cmd.argv(path)))
                except Exception:
                    outcomes.append(traceback.format_exc())
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if traced:
            self.tracer.end_report()
        row = {"wall": wall, "cpu": cpu, "scale": 1.0, "unit": None,
               "traced": traced, "report": self.tracer.report if traced else None}
        if self.unit is not None:
            after = speed_unit()
            row.update(scale=scale(self.unit, after), unit=after)
            self.unit = after
        row.update(self._check(outcomes, err.getvalue()))
        self.rows.append(row)

    def _check(self, outcomes, stderr: str) -> dict:
        problems, misses, size, items = [], 0, 0, 0
        for i, (cmd, out) in enumerate(zip(self.wl.commands, outcomes)):
            if isinstance(out, str):
                problems.append(f"command {i} raised:\n{out}")
                continue
            try:
                report = json.loads(self.paths[i].read_text())
                found, miss = check(cmd, self.refs[i], out, report)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"command {i} (exit {out}): unreadable report: {exc!r}")
                continue
            problems += found
            misses += miss
            size += self.paths[i].stat().st_size
            items += (cmd.replicas if isinstance(cmd, Simulate)
                      else sum(r["checks"] for r in report["body"]["records"]))
            if self.bodies[i] is None:
                self.bodies[i] = report["body"]
            elif report["body"] != self.bodies[i]:
                problems.append(f"command {i}: body differs from the first report's")
        if problems and stderr:
            problems.append("stderr:\n" + stderr)
        return {"problems": problems, "misses": misses, "bytes": size, "items": items}


def measure(runner: Runner, seconds: float, traced: bool) -> None:
    """Run reports until the next one would end after `seconds`.

    In a traced run reports alternate untraced, traced, ... so both kinds
    see the same conditions; at least one of each is run.
    """
    start = time.perf_counter()
    least = 2 if traced else 1
    while True:
        runner.run(traced and len(runner.rows) % 2 == 1)
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall"] for r in runner.rows)
        if len(runner.rows) >= least and elapsed + typical > seconds:
            return


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(rows: list[dict], setup: list[tuple[float, float]]) -> dict:
    """End-to-end metrics; times are medians of nominal seconds."""
    med = statistics.median
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (med(t * k for t, k in setup), "s"),
        "report_s": (med(r["wall"] * r["scale"] for r in rows), "s"),
        "items_per_s": (med(r["items"] / (r["wall"] * r["scale"]) for r in rows), "1/s"),
        "cpu_s": (med(r["cpu"] * r["scale"] for r in rows), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); 0 when nothing was recorded."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer(tracer: tr.Tracer, rows: list[dict]) -> dict:
    """Per-layer metrics: per-report medians over the traced reports."""
    traced = [r for r in rows if r["traced"]]
    plain = [r for r in rows if not r["traced"]]
    timed = [tr.ROOT_LAYER, *tr.SPAN_LAYERS]
    calls = defaultdict(list)
    own = defaultdict(list)
    self_sum = []
    durations = []
    for row in traced:
        spans = tracer.report_spans(row["report"])
        selfs = tr.self_times(spans)
        n_calls, t_self = defaultdict(int), defaultdict(float)
        for sid, layer, t0, t1, _, _ in spans:
            n_calls[layer] += 1
            t_self[layer] += selfs[sid]
            if layer == "sampling.haar_sample":
                durations.append((t1 - t0) * 1e3)
        n_calls.update(tracer.counts[row["report"]])
        for layer in [*timed, *tr.COUNT_LAYERS]:
            calls[layer].append(n_calls[layer])
        for layer in timed:
            own[layer].append(t_self[layer])
        self_sum.append(sum(selfs.values()) / row["wall"])
    med = statistics.median
    out = {}
    for layer in timed:
        out[f"{layer}.calls"] = (med(calls[layer]), "count")
        out[f"{layer}.self_s"] = (med(own[layer]), "s")
    for layer in tr.COUNT_LAYERS:
        out[f"{layer}.calls"] = (med(calls[layer]), "count")
    out["sampling.haar_sample.ms_p50"] = (_quantile(durations, 50), "ms")
    out["sampling.haar_sample.ms_p99"] = (_quantile(durations, 99), "ms")
    peaks = tracer.peak_bytes
    out[f"{tr.MEMORY_LAYER}.peak_mb"] = (med(peaks) / 2**20 if peaks else 0.0, "MB")
    out["cli.report_bytes"] = (med(r["bytes"] for r in traced), "B")
    out["trace.self_sum_frac"] = (med(self_sum), "ratio")
    out["trace_overhead_frac"] = (med(r["wall"] * r["scale"] for r in traced)
                                  / med(r["wall"] * r["scale"] for r in plain) - 1, "ratio")
    return out


def write_trace(tracer: tr.Tracer, name: str, summary: dict) -> Path:
    """Write all spans and the run summary once, at the end.

    Spans go to `trace_<workload>.npz` as columns `span`, `parent`,
    `report`, `layer` (index into `layers`), `start_s` and `end_s` (from
    the first span); the summary goes to `trace_<workload>.json`.
    """
    layers = [tr.ROOT_LAYER, *tr.SPAN_LAYERS]
    index = {layer: i for i, layer in enumerate(layers)}
    cols = list(zip(*tracer.spans))
    start = np.array(cols[2], dtype=np.float64)
    origin = start.min()
    spans_path = OUT_DIR / f"trace_{name}.npz"
    np.savez(spans_path, span=np.array(cols[0], dtype=np.int64),
             parent=np.array(cols[4], dtype=np.int64), report=np.array(cols[5], dtype=np.int32),
             layer=np.array([index[x] for x in cols[1]], dtype=np.int16),
             start_s=start - origin, end_s=np.array(cols[3], dtype=np.float64) - origin,
             layers=np.array(layers))
    with open(OUT_DIR / f"trace_{name}.json", "w") as fh:
        json.dump(summary, fh, indent=1)
    return spans_path


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 64-bit integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run(name: str, seed: int, seconds: float, traced: bool, tiny: bool = False) -> dict:
    """One benchmark run: its workload, machine record, report rows, failure
    count, metrics and tracer."""
    wl = build(name, seed, tiny)
    setup = [] if traced else probe_setup(name, seed)
    cli = import_haartrace()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    machine = machine_record()
    tracer = tr.Tracer() if traced else None
    runner = Runner(wl, cli, tracer)
    if wl.warmup:
        from haartrace.sampling import SeedSpec, haar_sample
        haar_sample(*wl.warmup, SeedSpec(seed, 0))
    if tracer:
        tracer.install()
    try:
        measure(runner, seconds, traced)
    finally:
        if tracer:
            tracer.uninstall()
    rows = runner.rows
    failed = sum(1 for r in rows if r["problems"])
    metrics = per_layer(tracer, rows) if traced else end_to_end(rows, setup)
    return {"workload": wl, "machine": machine, "rows": rows, "failed": failed,
            "metrics": metrics, "tracer": tracer, "setup": setup}


def main(argv=None) -> int:
    args = parse_args(argv)
    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    rows, metrics = res["rows"], res["metrics"]
    print("machine " + json.dumps(res["machine"], sort_keys=True))
    for row in rows:
        for problem in row["problems"]:
            print(f"FAILED report ({'traced' if row['traced'] else 'untraced'}): {problem}",
                  file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(rows)} reports, "
          f"fail_frac {res['failed'] / len(rows):.4g}, "
          f"4-SE misses {sum(r['misses'] for r in rows)} (statistical, not failures)")
    med = statistics.median
    if not args.trace:
        units = [r["unit"] for r in rows if r["unit"] is not None]
        unit = f"{med(units):.4f} s" if units else "not used"
        print(f"measured, unscaled: setup {med(t for t, _ in res['setup']):.4f} s, "
              f"report {med(r['wall'] for r in rows):.4f} s, "
              f"cpu {med(r['cpu'] for r in rows):.4f} s; speed unit {unit} "
              f"(nominal {NOMINAL_UNIT_S} s)")
    if args.trace:
        print(f"{'layer':38s} {'self_s/report':>14s} {'calls/report':>13s}")
        for key in sorted(k for k in metrics if k.endswith(".self_s")):
            layer = key[:-len(".self_s")]
            print(f"{layer:38s} {metrics[key][0]:14.4f} {metrics[layer + '.calls'][0]:13.0f}")
        summary = {"workload": args.workload, "seed": args.seed, "machine": res["machine"],
                   "reports": [{k: r[k] for k in
                                ("wall", "cpu", "scale", "traced", "report", "bytes")}
                               for r in rows],
                   "metrics": {k: v for k, (v, _) in metrics.items()}}
        path = write_trace(res["tracer"], args.workload, summary)
        print(f"spans written to {path.relative_to(ROOT)}")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": len(rows),
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
