import json
import os
import subprocess
import sys
import textwrap
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from haartrace import cli, empirics
from haartrace.cli import RunConfig, _write_report, main, parse_grid, run_verification


def run_cli(tmp_path, *args, fmt="json"):
    out = tmp_path / f"report.{fmt}"
    code = main([*args, "--output", str(out), "--format", fmt])
    return code, out.read_text()


def body_records(text):
    return json.loads(text)["body"]["records"]


def test_weingarten_command_unitary(tmp_path):
    code, text = run_cli(tmp_path, "weingarten", "--group", "unitary", "--n", "3", "--k", "2")
    assert code == 0
    rows = {r["representative"]: r["value"] for r in body_records(text)}
    assert rows == {"(1)(2)": "1/8", "(12)": "-1/24"}


def test_weingarten_command_k1(tmp_path):
    for n in (2, 5):
        code, text = run_cli(tmp_path, "weingarten", "--n", str(n), "--k", "1")
        assert code == 0
        (row,) = body_records(text)
        assert row["value"] == f"1/{n}"


def test_weingarten_command_orthogonal(tmp_path):
    code, text = run_cli(tmp_path, "weingarten", "--group", "orthogonal",
                         "--n", "4", "--k", "2")
    assert code == 0
    rows = {r["representative"]: r["value"] for r in body_records(text)}
    assert rows["(1)(2)"] == "5/72"


def test_cumulant_command_variance_match(tmp_path):
    code, text = run_cli(tmp_path, "cumulant", "--n", "2", "--dims", "1:1,1:1")
    assert code == 0
    (rec,) = body_records(text)
    assert rec["kappa"] == "1/12"
    assert rec["comparator_kind"] == "var0"
    assert rec["match"] == "true"


def test_cumulant_command_deterministic_zero(tmp_path):
    code, text = run_cli(tmp_path, "cumulant", "--n", "4", "--dims", "4:4,4:4")
    assert code == 0
    (rec,) = body_records(text)
    assert rec["kappa"] == "0/1"


def test_cumulant_command_r3_oracle(tmp_path):
    code, text = run_cli(tmp_path, "cumulant", "--n", "6", "--dims", "3:3,3:3,3:3")
    assert code == 0
    (rec,) = body_records(text)
    assert rec["comparator_kind"] == "moment-oracle"
    assert rec["match"] == "true"


def test_cumulant_command_orthogonal_variance(tmp_path):
    code, text = run_cli(tmp_path, "cumulant", "--group", "orthogonal",
                         "--n", "6", "--dims", "2:3,2:3")
    assert code == 0
    (rec,) = body_records(text)
    assert rec["comparator_kind"] == "var-orth"
    assert rec["match"] == "true"


@pytest.mark.parametrize("group, dims, kind", [
    ("unitary", "0:1,2:2", "cov1"),
    ("unitary", "3:0,3:0", "var0"),
    ("orthogonal", "0:1,0:1", "var-orth"),
])
def test_cumulant_zero_corner_side_compares_to_exact_zero(tmp_path, group, dims, kind):
    # an empty corner has T = 0, so its covariance with anything is exactly 0
    code, text = run_cli(tmp_path, "cumulant", "--group", group, "--n", "4", "--dims", dims)
    assert code == 0
    (rec,) = body_records(text)
    assert (rec["kappa"], rec["comparator"]) == ("0/1", "0/1")
    assert (rec["comparator_kind"], rec["match"]) == (kind, "true")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_report_with_non_finite_value_is_refused_not_written(tmp_path, value):
    # NaN and Infinity are not JSON; such a report must fail, not be emitted
    out = tmp_path / "report.json"
    config = RunConfig(command="spectra", output=str(out))
    with pytest.raises(ValueError, match="not JSON compliant"):
        _write_report(config, [{"kind": "summary", "mean_se": value}], time.time())
    assert not out.exists()


_REPORT_RECORDS = {
    "weingarten": lambda: cli.cmd_weingarten(RunConfig("weingarten", n=3, k=2))[0],
    "cumulant": lambda: cli.cmd_cumulant(RunConfig("cumulant", n=4, dims="1:2,3:3"))[0],
    "simulate": lambda: cli.cmd_simulate(RunConfig(
        "simulate", group="orthogonal", n=6, replicas=100, grid="0,0.5", master_seed=3))[0],
    "spectra": lambda: cli.cmd_spectra(RunConfig(
        "spectra", n=10, s=Fraction(1, 3), t=Fraction(1, 2), replicas=20, bins=4))[0],
    "verify": lambda: cli.cmd_verify(RunConfig("verify", scope="quick"))[0],
    "no-records": lambda: [],
    "empty-record": lambda: [{}, {"kind": "summary"}],
}


@pytest.mark.parametrize("case", _REPORT_RECORDS)
def test_json_report_is_indent_2_dumps_byte_for_byte(tmp_path, case):
    out = tmp_path / "report.json"
    config = RunConfig(case, s=Fraction(1, 3), t=Fraction(2, 7), output=str(out))
    rows = _REPORT_RECORDS[case]()
    text = _write_report(config, rows, time.time())
    meta = json.loads(text)["meta"]  # its clock fields are not reproducible
    assert (meta["config"]["s"], meta["config"]["t"]) == (1 / 3, 2 / 7)
    assert text == out.read_text() == json.dumps(
        {"meta": meta, "body": {"records": rows}}, indent=2,
        default=float, allow_nan=False) + "\n"


def test_simulate_command_deterministic_body(tmp_path):
    args = ["simulate", "--n", "40", "--replicas", "150", "--grid", "0.5",
            "--master-seed", "31"]
    code1, text1 = run_cli(tmp_path, *args)
    code2, text2 = run_cli(tmp_path, *args)
    assert code1 == code2 == 0
    assert json.loads(text1)["body"] == json.loads(text2)["body"]
    recs = body_records(text1)
    cov = [r for r in recs if r["kind"] == "covariance"]
    ks = [r for r in recs if r["kind"] == "kstats"]
    assert len(cov) == 1 and len(ks) == 1
    assert cov[0]["within_4se_of_exact"] in ("true", "false")


def test_simulate_prints_its_covariance_check_on_stderr(tmp_path, capsys):
    code, text = run_cli(tmp_path, "simulate", "--n", "24", "--replicas", "150",
                         "--grid", "0,0.5,0.75", "--master-seed", "6")
    line = capsys.readouterr().err.strip()
    cov = [r for r in body_records(text) if r["kind"] == "covariance"]
    outside = sum(r["within_4se_of_exact"] == "false" for r in cov)
    assert code == (1 if outside else 0)
    z = {(r["s"], r["t"], r["s2"], r["t2"]): abs(r["estimate"] - r["exact_float"]) / r["se"]
         for r in cov if r["se"] > 0}
    (s, t, s2, t2), worst = max(z.items(), key=lambda item: item[1])
    assert line == (f"simulate: {outside} of {len(cov)} covariances outside 4 SE; "
                    f"worst |z| {worst:.2f} at ({s:g},{t:g})-({s2:g},{t2:g})")


def test_simulate_worker_count_does_not_change_body(tmp_path):
    base = ["simulate", "--n", "32", "--replicas", "120", "--grid", "0.25,0.75",
            "--master-seed", "8"]
    _, text1 = run_cli(tmp_path, *base, "--workers", "1")
    _, text2 = run_cli(tmp_path, *base, "--workers", "3")
    assert json.loads(text1)["body"] == json.loads(text2)["body"]


def test_json_and_csv_payloads_match(tmp_path):
    args = ["simulate", "--n", "32", "--replicas", "120", "--grid", "0.5",
            "--master-seed", "12"]
    _, jtext = run_cli(tmp_path, *args, fmt="json")
    _, ctext = run_cli(tmp_path, *args, fmt="csv")
    jrecs = body_records(jtext)
    lines = [ln for ln in ctext.splitlines() if not ln.startswith("#")]
    import csv as csvmod
    crecs = list(csvmod.DictReader(lines))
    assert len(crecs) == len(jrecs)
    for jrec, crec in zip(jrecs, crecs):
        for key, val in jrec.items():
            if isinstance(val, float):
                assert float(crec[key]) == val  # shortest round-trip decimals
            else:
                assert crec[key] == str(val)


def test_meta_echo_fields(tmp_path):
    _, text = run_cli(tmp_path, "weingarten", "--n", "3", "--k", "1")
    meta = json.loads(text)["meta"]
    assert meta["version"]
    assert "wallclock_utc" in meta and "duration_s" in meta
    assert meta["config"]["n"] == 3 and meta["config"]["k"] == 1
    assert "master_seed" in meta


def test_spectra_command(tmp_path):
    code, text = run_cli(tmp_path, "spectra", "--n", "50", "--s", "0.3", "--t", "0.5",
                         "--replicas", "6", "--master-seed", "5")
    assert code == 0
    recs = body_records(text)
    summary = recs[0]
    assert summary["kind"] == "summary"
    assert summary["warnings"] == ""
    bins = [r for r in recs if r["kind"] == "bin"]
    assert len(bins) == 40
    assert sum(r["empirical_mass"] for r in bins) == pytest.approx(1.0)


def test_spectra_regime_warning_propagates(tmp_path):
    code, text = run_cli(tmp_path, "spectra", "--n", "40", "--s", "0.7", "--t", "0.5",
                         "--replicas", "4", "--master-seed", "5")
    assert code == 0
    assert "regime" in body_records(text)[0]["warnings"]


def test_verify_quick_passes(tmp_path):
    code, text = run_cli(tmp_path, "verify", "--scope", "quick")
    assert code == 0
    assert all(r["status"] == "pass" for r in body_records(text))


def _off_at_id2_n4(monkeypatch):
    """Perturb one looked-up Weingarten value, Wg_U(n=4, id2), by 1e-9; no cache changes."""
    from haartrace import weingarten as wg
    exact = wg.weingarten_unitary

    def off(n, sigma):
        value = exact(n, sigma)
        return value + Fraction(1, 10**9) if (n, sigma) == (4, (1, 1)) else value

    monkeypatch.setattr(wg, "weingarten_unitary", off)


def test_verify_inject_error_fails_with_named_identity(tmp_path, monkeypatch):
    _off_at_id2_n4(monkeypatch)
    code, text = run_cli(tmp_path, "verify", "--scope", "quick")
    assert code == 1
    failing = [r for r in body_records(text) if r["status"] == "FAIL"]
    assert [(r["identity"], r["detail"]) for r in failing] == [
        ("weingarten-closed-forms", "unitary id2 at n=4: 200000003/3000000000 != 1/15")]


def test_verify_tallies_every_failing_case(monkeypatch):
    from haartrace import cumulants as cm
    closed = cm.covariance_closed

    def off_when_p_is_one(p, q, p2, q2, n):
        return closed(p, q, p2, q2, n) + (Fraction(1, 10**9) if p == 1 else 0)

    monkeypatch.setattr(cm, "covariance_closed", off_when_p_is_one)
    ok, rows = run_verification("quick")
    assert not ok
    failing = [r for r in rows if r["status"] != "pass"]
    assert [r["identity"] for r in failing] == ["covariance-closed-form"]
    assert failing[0] == {"identity": "covariance-closed-form", "checks": 256,
                          "failures": 64, "status": "FAIL", "detail": "n=4 (1,1,1,1)"}


def test_verification_is_hermetic_after_injection():
    with pytest.MonkeyPatch.context() as monkeypatch:
        _off_at_id2_n4(monkeypatch)
        ok, _ = run_verification("quick")
    assert not ok
    ok2, _ = run_verification("quick")
    assert ok2


def test_verification_leaves_exact_caches_empty():
    # every memoized function of the exact engine, found by introspection, so
    # a new cache that `_clear_exact_caches` misses fails here
    from haartrace import cumulants as cm, weingarten as wg
    modules = {mod.__name__ for mod in (cm, wg)}
    caches = {fn.__name__: fn for mod in (cm, wg) for fn in vars(mod).values()
              if hasattr(fn, "cache_clear") and getattr(fn, "__module__", None) in modules}
    assert {"gram_inverse", "_coefficient_table", "_block_moment"} <= set(caches)
    run_verification("quick")
    assert {name: c.cache_info().currsize for name, c in caches.items()} == \
        dict.fromkeys(caches, 0)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["weingarten", "--n", "3"])  # missing --k
    assert exc.value.code == 2
    assert main(["weingarten", "--n", "3", "--k", "9"]) == 2  # size guard -> usage error


@pytest.mark.parametrize("group, limit", [("unitary", 4), ("orthogonal", 3)])
def test_weingarten_order_zero_names_group_range(capsys, group, limit):
    assert main(["weingarten", "--group", group, "--n", "4", "--k", "0"]) == 2
    assert f"{group} order limited to 1 <= k <= {limit}, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_bad_master_seed_names_value(capsys, seed):
    assert main(["simulate", "--n", "8", "--replicas", "100", "--grid", "0.5",
                 "--master-seed", seed]) == 2
    err = capsys.readouterr().err
    assert f"master_seed must be an unsigned 64-bit integer, got {seed}" in err


def test_insufficient_replicas_is_usage_error(capsys):
    assert main(["simulate", "--n", "20", "--replicas", "5", "--grid", "0.5"]) == 2
    assert "got 5" in capsys.readouterr().err


def test_singular_gram_reported_with_location(capsys):
    code = main(["weingarten", "--n", "2", "--k", "4"])
    assert code == 2
    err = capsys.readouterr().err
    assert "singular" in err and "n=2" in err and "k=4" in err


@pytest.mark.parametrize("argv, n, k", [
    (["weingarten", "--n", "2", "--k", "3"], 2, 3),
    (["weingarten", "--group", "orthogonal", "--n", "1", "--k", "2"], 1, 2),
])
def test_singular_gram_below_order_is_usage_error(capsys, argv, n, k):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: singular Gram matrix at (n={n}, k={k}): matrix is exactly singular" in err


def test_weingarten_zero_size_names_n(capsys):
    assert main(["weingarten", "--n", "0", "--k", "2"]) == 2
    assert "matrix size must be positive, got 0" in capsys.readouterr().err


def test_worker_count_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("HAARTRACE_WORKERS", "3")
    _, text = run_cli(tmp_path, "simulate", "--n", "20", "--replicas", "110",
                      "--grid", "0.5", "--master-seed", "2")
    assert json.loads(text)["meta"]["config"]["workers"] == 3


def test_bad_worker_env_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("HAARTRACE_WORKERS", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--n", "20", "--replicas", "110", "--grid", "0.5"])
    assert exc.value.code == 2
    assert "'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["0", "-2"])
def test_nonpositive_workers_is_usage_error(count, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--n", "20", "--replicas", "110", "--grid", "0.5",
              "--workers", count])
    assert exc.value.code == 2
    assert f"'{count}'" in capsys.readouterr().err


def test_cumulant_singular_gram_names_order(capsys):
    code = main(["cumulant", "--n", "3", "--dims", "1:1,1:1,1:1,1:1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "singular" in err and "n=3" in err and "k=4" in err


def test_simulate_boundary_grid_point(tmp_path):
    code, text = run_cli(tmp_path, "simulate", "--n", "24", "--replicas", "110",
                         "--grid", "0.0,0.5", "--master-seed", "3")
    assert code == 0
    recs = [r for r in body_records(text) if r["kind"] == "covariance"]
    zero_rows = [r for r in recs if 0.0 in (r["s"], r["t"])]
    assert zero_rows and all(r["estimate"] == 0.0 and r["exact"] == "0/1"
                             for r in zero_rows)


def test_simulate_grid_with_one_passes(tmp_path):
    # on the lines s = 1 and t = 1, W is identically 0 (T_{n,q} = q, T_{p,n} = p)
    code, text = run_cli(tmp_path, "simulate", "--n", "64", "--replicas", "300",
                         "--grid", "0,0.25,0.5,0.75,1", "--master-seed", "9")
    assert code == 0
    recs = [r for r in body_records(text) if r["kind"] == "covariance"]
    edge_rows = [r for r in recs if 1.0 in (r["s"], r["t"], r["s2"], r["t2"])]
    assert edge_rows and all(
        r["estimate"] == 0.0 and r["se"] == 0.0 and r["exact"] == "0/1" for r in edge_rows)
    assert all(r["within_4se_of_exact"] == "true" for r in recs)


def test_simulate_floors_decimal_grid_values_exactly(tmp_path):
    # 100 * 0.29 is 28.999999999999996 in floats; the grid point means row 29
    from haartrace.cumulants import limit_covariance, variance_closed
    from haartrace.empirics import covariance_mc, map_replicas, trace_field
    code, text = run_cli(tmp_path, "simulate", "--n", "100", "--replicas", "100",
                         "--grid", "0.29", "--master-seed", "4")
    assert code in (0, 1)
    (cov,) = [r for r in body_records(text) if r["kind"] == "covariance"]
    assert (cov["s"], cov["t"]) == (0.29, 0.29)
    assert cov["exact"] == "{0.numerator}/{0.denominator}".format(variance_closed(29, 29, 100))
    assert cov["limit"] == limit_covariance(0.29, 0.29, 0.29, 0.29, 2)
    # the leading 29 rows and columns, sampled by the route the command takes
    values = map_replicas("unitary", 100, 100, 4,
                          lambda z: trace_field(z)[:, 29, 29:30] - 29 * 29 / 100,
                          columns=29, rows=29)
    assert cov["estimate"] == float(covariance_mc(values)[0][0, 0])


def test_spectra_floors_decimal_aspect_ratios_exactly(tmp_path):
    code, text = run_cli(tmp_path, "spectra", "--n", "100", "--s", "0.29", "--t", "0.58",
                         "--replicas", "2", "--master-seed", "5")
    assert code == 0
    summary = body_records(text)[0]
    assert (summary["p"], summary["q"], summary["expected_mean"]) == (29, 58, 0.58)
    assert json.loads(text)["meta"]["config"]["s"] == 0.29


def test_spectra_expected_mean_is_the_finite_n_value(tmp_path):
    # E[T_{p,q}] / p = q / n with q = floor(n t): 5/10 here, not t = 0.55
    code, text = run_cli(tmp_path, "spectra", "--n", "10", "--s", "0.3", "--t", "0.55",
                         "--replicas", "4000")
    assert code == 0
    summary = body_records(text)[0]
    assert (summary["q"], summary["expected_mean"]) == (5, 0.5)
    mean, se = summary["mean_eigenvalue"], summary["mean_se"]
    assert abs(mean - 0.5) <= 4 * se < abs(mean - 0.55)


def _no_sampling(*args, **kwargs):
    raise AssertionError("sampled before the input was checked")


@pytest.mark.parametrize("grid, named", [("", "''"), (" , ", "' , '"),
                                         ("1.5", "1.5"), ("0.5,-0.25", "-0.25"),
                                         ("0.5,1/0", "'1/0'")],
                         ids=["empty", "blank", "above-one", "negative", "zero-denominator"])
def test_simulate_rejects_bad_grid_before_sampling(grid, named, monkeypatch, capsys):
    monkeypatch.setattr(empirics, "sample_process_values", _no_sampling)
    assert main(["simulate", "--n", "20", "--replicas", "100", "--grid", grid]) == 2
    err = capsys.readouterr().err
    assert "--grid" in err and named in err


@pytest.mark.parametrize("where", ["missing/x.json", "."], ids=["no-folder", "directory"])
def test_bad_output_path_is_usage_error_before_any_work(where, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(empirics, "map_replicas", _no_sampling)
    monkeypatch.setattr(cli, "run_verification", _no_sampling)
    path = str(tmp_path / where)
    for argv in (["simulate", "--n", "20", "--replicas", "100"], ["verify"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--output", path])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert repr(path) in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def _out_of_memory(*args, **kwargs):
    raise MemoryError


def test_out_of_memory_is_usage_error_naming_the_size(monkeypatch, capsys):
    monkeypatch.setattr(empirics, "map_replicas", _out_of_memory)
    assert main(["simulate", "--n", "100000", "--replicas", "100", "--grid", "0.5"]) == 2
    err = capsys.readouterr().err
    assert "simulate" in err and "n=100000" in err and "100 replicas" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, n, replicas", [
    (["simulate", "--n", "4", "--replicas", str(10**19), "--grid", "0.5"], 4, 10**19),
    (["spectra", "--n", "4", "--s", "1/2", "--t", "1/2", "--replicas", str(10**19)], 4, 10**19),
    (["simulate", "--n", str(10**20 - 1), "--replicas", "100", "--grid", "0.5"], 10**20 - 1, 100),
], ids=["simulate-replicas", "spectra-replicas", "simulate-n"])
def test_oversized_run_is_usage_error_naming_the_size(argv, n, replicas, monkeypatch, capsys):
    # numpy cannot size the seed words or the corner indices; the run stops
    # there, before any Gaussian block is drawn or any array is allocated
    import tracemalloc
    from haartrace import sampling
    monkeypatch.setattr(sampling, "_haar_stack", _no_sampling)
    tracemalloc.start()
    try:
        assert main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert f"error: {argv[0]} has sizes too large at n={n} with {replicas} replicas" in err
    assert "Traceback" not in err
    assert peak < 2**20


# the Monte Carlo names that `haartrace` re-exports, by defining module
_DEFERRED_NAMES = {
    "sampling": ("SeedSpec", "haar_batch", "haar_sample", "orthonormality_residual"),
    "empirics": ("IncrementFit", "KStats", "KestenMcKay", "SpectralHistogram",
                 "covariance_mc", "increment_fourth_moment_fit", "kesten_mckay",
                 "kstat_estimators", "process_value", "sample_process_values",
                 "spectral_compare", "trace_field"),
}


def test_exact_commands_run_without_numpy(tmp_path):
    # a fresh process: this one imported numpy long ago.  The Monte Carlo
    # modules must still be in `sys.modules` for lookups by name, and every
    # re-exported name must be its module's object once read
    code = textwrap.dedent(f"""
        import sys
        import haartrace
        import haartrace.cli as cli
        for argv in (["weingarten", "--n", "4", "--k", "3"],
                     ["cumulant", "--n", "4", "--dims", "2:3,2:3"],
                     ["verify", "--scope", "quick"]):
            assert cli.main([*argv, "--output", {str(tmp_path / "report.json")!r}]) == 0, argv
        assert "numpy" not in sys.modules, "numpy imported"
        assert {{"haartrace.sampling", "haartrace.empirics"}} <= set(sys.modules)
        haartrace.SeedSpec
        for module, names in {_DEFERRED_NAMES!r}.items():
            for name in names:
                assert getattr(haartrace, name) is getattr(
                    sys.modules["haartrace." + module], name), name
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_simulate_rejects_zero_size_before_sampling(monkeypatch, capsys):
    monkeypatch.setattr(empirics, "map_replicas", _no_sampling)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--n", "0", "--replicas", "100", "--grid", "0.5"]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "matrix size must be positive, got 0" in capsys.readouterr().err


def test_grid_axis_keeps_both_endpoints():
    assert parse_grid("0,0.5,1") == [Fraction(0), Fraction(1, 2), Fraction(1)]


@pytest.mark.parametrize("bins", ["0", "-2"])
def test_spectra_rejects_nonpositive_bins(bins, monkeypatch, capsys):
    monkeypatch.setattr(empirics, "map_replicas", _no_sampling)
    code = main(["spectra", "--n", "20", "--s", "0.3", "--t", "0.5",
                 "--replicas", "2", "--bins", bins])
    assert code == 2
    err = capsys.readouterr().err
    assert "bins" in err and f"got {bins}" in err


@pytest.mark.parametrize("s, t, flag", [("1/0", "0.5", "--s"), ("0.3", "1/0", "--t")],
                         ids=["s", "t"])
def test_spectra_rejects_zero_denominator(s, t, flag, monkeypatch, capsys):
    monkeypatch.setattr(empirics, "map_replicas", _no_sampling)
    with pytest.raises(SystemExit) as exc:
        main(["spectra", "--n", "20", "--s", s, "--t", t, "--replicas", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "'1/0'" in err and "Traceback" not in err


@pytest.mark.parametrize("s, named", [("2", "inside (0,1), got s=2.0, t=0.5"),
                                      ("0.05", "got floor(ns) = 0, floor(nt) = 5")],
                         ids=["above-one", "empty-corner"])
def test_spectra_bad_aspect_ratio_names_value(s, named, monkeypatch, capsys):
    monkeypatch.setattr(empirics, "map_replicas", _no_sampling)
    assert main(["spectra", "--n", "10", "--s", s, "--t", "0.5", "--replicas", "4"]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


def test_spectra_rejects_single_replica(monkeypatch, capsys):
    # one replica has no standard error, which would be written as NaN
    monkeypatch.setattr(empirics, "map_replicas", _no_sampling)
    code = main(["spectra", "--n", "20", "--s", "0.3", "--t", "0.5", "--replicas", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "replicas" in err and "got 1" in err


@pytest.mark.parametrize("n", ["0", "-3"])
def test_cumulant_nonpositive_size_names_n(n, capsys):
    # the size is checked before the corner dims, which would name [0, n]
    assert main(["cumulant", "--n", n, "--dims", "1:1"]) == 2
    err = capsys.readouterr().err
    assert f"matrix size must be positive, got {n}" in err and "corner dims" not in err


def test_cumulant_malformed_dims_names_chunk(capsys):
    assert main(["cumulant", "--n", "4", "--dims", "2:3,2"]) == 2
    err = capsys.readouterr().err
    assert "'2'" in err and "p:q" in err
