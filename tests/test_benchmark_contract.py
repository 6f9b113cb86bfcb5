"""The package still offers what the benchmark harness in `perfbench/` relies on.

The harness is loaded by path and only read: its tracer wraps package
functions by (module, attribute), its warm-up and output checks call the
package by name, and its `exact_verify` check compares the per-identity case
counts of `verify --scope default` with a frozen table.
"""
import importlib
import math
import importlib.util
import sys
from pathlib import Path

import pytest

from haartrace import cumulants as cm
from haartrace import weingarten as wg
from haartrace.cli import run_verification
from haartrace.sampling import SeedSpec, haar_sample

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _traced_sites():
    tracer = _load("tracer")
    sites = [site for sites in tracer.SPAN_LAYERS.values() for site in sites]
    return sites + list(tracer.COUNT_LAYERS.values())


@pytest.mark.parametrize("module, attribute", _traced_sites())
def test_traced_call_sites_exist(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))


@pytest.mark.parametrize("name", _load("workloads").WORKLOADS)
def test_untraced_benchmark_calls_run(name):
    # `probe.py` and `run.py` sample one warm-up replica, and `run.py` takes
    # each simulate command's exact covariances from `workloads.reference`
    workloads = _load("workloads")
    wl = workloads.build(name, seed=5, tiny=True)
    if wl.warmup:
        assert haar_sample(*wl.warmup, SeedSpec(5, 0)).shape == (wl.warmup[1],) * 2
    for cmd in wl.commands:
        ref = workloads.reference(cmd, cm)
        if ref is None:
            continue
        dims = [(math.floor(cmd.n * s), math.floor(cmd.n * t)) for s, t in cmd.points()]
        exact = {(a, b): cm.process_covariance(cmd.group, cmd.n, dims[a], dims[b])
                 for a in range(len(dims)) for b in range(a, len(dims))}
        assert ref == {key: workloads._frac_str(x) for key, x in exact.items()}


def _checks(scope):
    ok, rows = run_verification(scope)
    assert ok
    return {row["identity"]: row["checks"] for row in rows}


def test_verify_default_counts_match_benchmark():
    assert _checks("default") == _load("workloads").VERIFY_DEFAULT_CHECKS


def test_verify_quick_counts_in_table_order():
    assert list(_checks("quick").items()) == [
        ("mobius-inversion", 76),
        ("gram-inverse-unitary", 3),
        ("gram-inverse-orthogonal", 2),
        ("weingarten-closed-forms", 14),
        ("oracle-equivalence-unitary", 36),
        ("oracle-equivalence-orthogonal", 36),
        ("covariance-closed-form", 256),
        ("variance-closed-form-orthogonal", 16),
    ]


def test_one_bareiss_inversion_per_cold_gram_inverse(monkeypatch):
    # the traced `weingarten.gram_inverse` layer wraps `_bareiss_inverse`
    calls = []
    inverse = wg._bareiss_inverse
    monkeypatch.setattr(wg, "_bareiss_inverse", lambda a: calls.append(a) or inverse(a))
    wg.gram_inverse.cache_clear()
    try:
        for _ in range(2):
            wg.gram_inverse("unitary", 5, 3)
            wg.gram_inverse("orthogonal", 7, 2)
            assert len(calls) == 2
    finally:
        wg.gram_inverse.cache_clear()
