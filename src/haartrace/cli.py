"""Command-line interface: exact tables, cumulants, MC experiments, verification.

Every command emits a report with two sections: `meta` (full config echo,
package version, seed, wall clock) and `body` (the numeric payload).  Bodies
are deterministic given the seed and worker count; timestamps live only in
meta, so repeated runs with one seed produce byte-identical bodies.  Exact
rationals are serialized as "num/den" strings and never pass through floats.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import math
import os
import random
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import __version__
from . import combinatorics as comb
from . import cumulants as cm
from . import empirics as emp
from . import weingarten as wg
from .errors import SingularGramError, SizeLimitError


@dataclass
class RunConfig:
    command: str
    group: str = "unitary"
    n: int = 0
    k: int = 0
    r: int = 0
    dims: str = ""
    grid: str = ""
    s: Fraction = Fraction(0)
    t: Fraction = Fraction(0)
    replicas: int = 0
    bins: int = 40
    master_seed: int = 0
    workers: int = 1
    scope: str = "default"
    output: str = ""
    format: str = "json"


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _bool_str(b: bool) -> str:
    return "true" if b else "false"


_RECORD_ENCODER = json.JSONEncoder(separators=(",\n        ", ": "), default=float,
                                   allow_nan=False)


def _write_report(config: RunConfig, records: list[dict], started: float) -> str:
    meta = {
        "command": config.command,
        "config": {k: v for k, v in asdict(config).items() if k != "command"},
        "version": __version__,
        "master_seed": config.master_seed,
        "wallclock_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "duration_s": round(time.time() - started, 3),
    }
    if config.format == "json":
        # indent=2 runs json's pure-Python encoder; flat records take the C one, laid out alike
        head, _, tail = json.dumps({"meta": meta, "body": {"records": []}}, indent=2,
                                   default=float, allow_nan=False).rpartition("[]")
        rows = [f"{{\n        {_RECORD_ENCODER.encode(rec)[1:-1]}\n      }}" if rec else "{}"
                for rec in records]
        body = "[\n      " + ",\n      ".join(rows) + "\n    ]" if rows else "[]"
        text = head + body + tail + "\n"
    else:
        buf = io.StringIO()
        for key, val in meta.items():
            buf.write(f"# {key}={json.dumps(val, sort_keys=True, default=float)}\n")
        if records:
            fields = list(dict.fromkeys(key for rec in records for key in rec))
            writer = csv.DictWriter(buf, fieldnames=fields, restval="")
            writer.writeheader()
            writer.writerows(records)
        text = buf.getvalue()
    if config.output:
        with open(config.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


def _cycle_notation(cycle_type: tuple[int, ...]) -> str:
    out, nxt = [], 1
    for length in cycle_type:
        out.append("(" + "".join(str(nxt + i) for i in range(length)) + ")")
        nxt += length
    return "".join(out)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_weingarten(config: RunConfig) -> tuple[list[dict], int]:
    table = wg.weingarten_table(config.group, config.n, config.k)
    records = []
    for key in sorted(table, reverse=True):
        records.append({
            "group": config.group,
            "n": config.n,
            "k": config.k,
            "cycle_type": "+".join(map(str, key)),
            "representative": _cycle_notation(key),
            "value": _frac_str(table[key]),
        })
    return records, 0


def _parse_dims(config: RunConfig) -> cm.ProjectorFamily:
    if not config.dims:
        raise ValueError("cumulant command needs --dims like 'p:q,p:q,...'")
    pairs = []
    for chunk in config.dims.split(","):
        try:
            p, q = chunk.split(":")
            pairs.append((int(p), int(q)))
        except ValueError:
            raise ValueError(f"--dims chunk {chunk!r} is not of the form p:q "
                             f"with integers p and q") from None
    return cm.ProjectorFamily(config.n, tuple(pairs))


def cmd_cumulant(config: RunConfig) -> tuple[list[dict], int]:
    family = _parse_dims(config)
    r = config.r = family.r
    req = cm.CumulantRequest(config.group, r, family)
    kappa = cm.trace_cumulant(req)
    dims = family.dims
    uniform = len(set(dims)) == 1
    comparator_kind = "moment-oracle"
    if r == 1:
        comparator, comparator_kind = Fraction(dims[0][0] * dims[0][1], config.n), "mean"
    elif r == 2 and (config.group == "unitary" or uniform):
        comparator = cm.process_covariance(config.group, config.n, *dims)
        comparator_kind = ("var-orth" if config.group == "orthogonal"
                           else "var0" if uniform else "cov1")
    else:
        comparator = cm.cumulant_via_moments(config.group, family)
    record = {
        "group": config.group,
        "n": config.n,
        "r": r,
        "dims": config.dims,
        "kappa": _frac_str(kappa),
        "kappa_float": float(kappa),
        "comparator_kind": comparator_kind,
        "comparator": _frac_str(comparator),
        "match": _bool_str(kappa == comparator),
    }
    return [record], 0


def fraction(text: str) -> Fraction:
    """An exact decimal or p/q; a zero denominator is a ValueError naming the text."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_grid(grid: str, flag: str = "--grid") -> list[Fraction]:
    """Axis values as exact decimals, so flooring n * value needs no rounding."""
    texts = [x.strip() for x in grid.split(",") if x.strip()]
    if not texts:
        raise ValueError(f"{flag} needs at least one axis value, got {grid!r}")
    try:
        axis = [fraction(x) for x in texts]
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None
    for x, text in zip(axis, texts):
        if not 0 <= x <= 1:
            raise ValueError(f"{flag} values must lie in [0, 1], got {text}")
    return axis


def cmd_simulate(config: RunConfig) -> tuple[list[dict], int]:
    emp.check_covariance_replicas(config.replicas)  # before any replica is sampled
    axis = parse_grid(config.grid)
    points = [(s, t) for s in axis for t in axis]
    values = emp.sample_process_values(
        config.group, config.n, points, config.replicas,
        config.master_seed, workers=config.workers)
    est, se = (x.tolist() for x in emp.covariance_mc(values))
    beta = 2 if config.group == "unitary" else 1
    dims = [(emp.floor_index(config.n, s), emp.floor_index(config.n, t)) for s, t in points]
    points = [(float(s), float(t)) for s, t in points]
    records: list[dict] = []
    for a, (s1, t1) in enumerate(points):
        for b, (s2, t2) in enumerate(points):
            if b < a:
                continue
            exact = cm.process_covariance(config.group, config.n, dims[a], dims[b])
            limit = cm.limit_covariance(s1, t1, s2, t2, beta)
            records.append({
                "kind": "covariance",
                "s": s1, "t": t1, "s2": s2, "t2": t2,
                "estimate": est[a][b],
                "se": se[a][b],
                "exact": _frac_str(exact),
                "exact_float": float(exact),
                "limit": limit,
                "within_4se_of_exact": _bool_str(abs(est[a][b] - float(exact)) <= 4 * se[a][b]),
                "within_limit_policy": _bool_str(
                    abs(est[a][b] - limit) <= 0.01 + 4 * se[a][b]),
            })
    for a, (s1, t1) in enumerate(points):
        ks = emp.kstat_estimators(values[:, a])
        records.append({
            "kind": "kstats", "s": s1, "t": t1,
            "k2": ks.k2, "se2": ks.se2,
            "k3": ks.k3, "se3": ks.se3,
            "k4": ks.k4, "se4": ks.se4,
        })
    failed = any(r.get("within_4se_of_exact") == "false" for r in records)
    return records, 1 if failed else 0


def _simulate_summary(records: list[dict]) -> str:
    """One stderr line: covariances outside 4 SE of the exact value, and the worst |z|."""
    covariances = [rec for rec in records if rec["kind"] == "covariance"]
    outside = sum(rec["within_4se_of_exact"] == "false" for rec in covariances)

    def z(rec: dict) -> float:
        miss = abs(rec["estimate"] - rec["exact_float"])
        return miss / rec["se"] if rec["se"] > 0 else (math.inf if miss else 0.0)

    worst = max(covariances, key=z)
    return (f"simulate: {outside} of {len(covariances)} covariances outside 4 SE; "
            f"worst |z| {z(worst):.2f} at ({worst['s']:g},{worst['t']:g})"
            f"-({worst['s2']:g},{worst['t2']:g})")


def cmd_spectra(config: RunConfig) -> tuple[list[dict], int]:
    result = emp.spectral_compare(
        config.n, config.s, config.t, config.replicas, config.master_seed,
        group=config.group, bins=config.bins, workers=config.workers)
    records: list[dict] = [{
        "kind": "summary",
        "l1_distance": result.l1_distance,
        "mean_eigenvalue": result.mean_eigenvalue,
        "mean_se": result.mean_se,
        "expected_mean": result.q / config.n,  # E[tr H] / p = q / n exactly
        "warnings": ";".join(result.warnings),
        "p": result.p,
        "q": result.q,
        "bins": config.bins,
    }]
    for lo, hi, e_mass, r_mass in zip(result.bin_edges[:-1], result.bin_edges[1:],
                                      result.empirical_mass, result.reference_mass):
        records.append({
            "kind": "bin", "lo": float(lo), "hi": float(hi),
            "empirical_mass": float(e_mass), "reference_mass": float(r_mass),
        })
    return records, 0


# ---------------------------------------------------------------------------
# Verification suite: exact identities only
# ---------------------------------------------------------------------------

def _clear_exact_caches() -> None:
    # every memoized function defined in `weingarten` or `cumulants`; the
    # `combinatorics` caches do not depend on n and stay warm
    for mod in (wg, cm):
        for fn in vars(mod).values():
            if hasattr(fn, "cache_clear") and getattr(fn, "__module__", None) == mod.__name__:
                fn.cache_clear()


def _check_mobius_inversion(kmax: int):
    for k in range(1, kmax + 1):
        parts = comb.enumerate_partitions(k)
        # below[j]: the indices of the partitions that refine partition j, in order
        below = [[i for i, c in enumerate(parts) if comb.refines(c, b)] for b in parts]
        down = [set(ids) for ids in below]
        for j, b in enumerate(parts):
            mu = {c: comb.mobius(parts[c], b) for c in below[j]}
            for a in below[j]:
                total = sum(m for c, m in mu.items() if a in down[c])
                yield total == (1 if a == j else 0), f"k={k} A={parts[a]} B={b} sum={total}"


def _check_gram_inverse(group: str, orders: list[int], sizes: list[int]):
    for k in orders:
        for n in sizes:
            yield (wg.is_inverse(wg.gram(group, n, k), wg.gram_inverse(group, n, k)),
                   f"{group} k={k} n={n}")


def _check_closed_weingarten(sizes: list[int]):
    for n in sizes:
        checks = [
            (wg.weingarten_unitary(n, (1,)), Fraction(1, n), "unitary k=1"),
            (wg.weingarten_unitary(n, (1, 1)), Fraction(1, n * n - 1), "unitary id2"),
            (wg.weingarten_unitary(n, (2,)), Fraction(-1, n * (n * n - 1)), "unitary swap"),
            (wg.weingarten_orthogonal(n, (1,)), Fraction(1, n), "orthogonal k=1"),
            (wg.weingarten_orthogonal(n, (1, 1)),
             Fraction(n + 1, n * (n + 2) * (n - 1)), "orthogonal id2"),
            (wg.joint_moment("orthogonal", (1, 1, 1, 1), (1, 1, 1, 1), n),
             Fraction(3, n * (n + 2)), "orthogonal O^4"),
            (wg.joint_moment("orthogonal", (1, 1, 1, 1), (1, 2, 1, 2), n),
             Fraction(1, n * (n + 2)), "orthogonal O^2 O^2 same row"),
        ]
        for got, want, name in checks:
            yield got == want, f"{name} at n={n}: {got} != {want}"


def _distinct_dim_samples(n: int, r: int, how_many: int, seed: int):
    rng = random.Random(seed)
    for _ in range(how_many):
        yield tuple((rng.randint(1, n), rng.randint(1, n)) for _ in range(r))


def _check_oracle_equivalence(group: str, rmax: int, sizes: list[int], samples: int):
    for n in sizes:
        for r in range(1, rmax + 1):
            families = [tuple(((p, q),) * r) for p in range(1, n + 1) for q in range(1, n + 1)]
            if r >= 2:
                families.extend(_distinct_dim_samples(n, r, samples, seed=1000 * n + r))
            for dims in families:
                fam = cm.ProjectorFamily(n, dims)
                lhs = cm.trace_cumulant(cm.CumulantRequest(group, r, fam))
                rhs = cm.cumulant_via_moments(group, fam)
                yield lhs == rhs, f"{group} n={n} r={r} dims={dims}: {lhs} != {rhs}"


def _check_covariance_closed(sizes: list[int]):
    for n in sizes:
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                for p2 in range(1, n + 1):
                    for q2 in range(1, n + 1):
                        fam = cm.ProjectorFamily(n, ((p, q), (p2, q2)))
                        got = cm.trace_cumulant_unitary(cm.CumulantRequest("unitary", 2, fam))
                        yield (got == cm.covariance_closed(p, q, p2, q2, n),
                               f"n={n} ({p},{q},{p2},{q2})")


def _check_variance_orthogonal(sizes: list[int]):
    for n in sizes:
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                fam = cm.ProjectorFamily.uniform(p, q, 2, n)
                got = cm.trace_cumulant_orthogonal(cm.CumulantRequest("orthogonal", 2, fam))
                yield got == cm.variance_closed_orthogonal(p, q, n), f"n={n} ({p},{q})"


def run_verification(scope: str = "default"):
    """Run the exact-identity suite; returns (all_ok, result rows).

    Each check yields one (ok, detail) per case; a row counts the cases and
    reports the first failing detail.
    """
    # identity, check, quick arguments, default arguments
    suite = [
        ("mobius-inversion", _check_mobius_inversion, (4,), (5,)),
        ("gram-inverse-unitary", _check_gram_inverse,
         ("unitary", [1, 2, 3], [4]), ("unitary", [1, 2, 3, 4], [4, 6, 8])),
        ("gram-inverse-orthogonal", _check_gram_inverse,
         ("orthogonal", [1, 2], [6]), ("orthogonal", [1, 2, 3], [6, 8, 10])),
        ("weingarten-closed-forms", _check_closed_weingarten,
         ([4, 6],), ([4, 5, 6, 7, 8],)),
        ("oracle-equivalence-unitary", _check_oracle_equivalence,
         ("unitary", 2, [4], 4), ("unitary", 4, [4, 5, 6], 6)),
        ("oracle-equivalence-orthogonal", _check_oracle_equivalence,
         ("orthogonal", 2, [4], 4), ("orthogonal", 3, [4, 5, 6], 6)),
        ("covariance-closed-form", _check_covariance_closed, ([4],), ([4, 5, 6],)),
        ("variance-closed-form-orthogonal", _check_variance_orthogonal, ([4],), ([5, 6],)),
    ]
    _clear_exact_caches()
    try:
        results = []
        for identity, check, quick, default in suite:
            args = quick if scope == "quick" else default
            failures = []
            for cases, (ok, detail) in enumerate(check(*args), 1):
                if not ok:
                    failures.append(detail)
            results.append({
                "identity": identity,
                "checks": cases,
                "failures": len(failures),
                "status": "pass" if not failures else "FAIL",
                "detail": failures[0] if failures else "",
            })
        return all(r["failures"] == 0 for r in results), results
    finally:
        _clear_exact_caches()


def cmd_verify(config: RunConfig) -> tuple[list[dict], int]:
    ok, results = run_verification(config.scope)
    return results, 0 if ok else 1


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def worker_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"worker count (--workers or HAARTRACE_WORKERS) must be a positive "
            f"integer, got {text!r}")
    return count


def output_path(text: str) -> str:
    """A report file in an existing folder, checked before any work; "" is stdout."""
    folder = os.path.dirname(text) or "."
    if text and os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"report path {text!r} is a directory")
    if not os.path.isdir(folder):
        raise argparse.ArgumentTypeError(f"report path {text!r} has no folder {folder!r}")
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haartrace",
        description="Exact Weingarten/cumulant engine and Monte Carlo harness "
                    "for truncated Haar matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, seeded: bool = False) -> None:
        p.add_argument("--group", choices=["unitary", "orthogonal"], default="unitary")
        p.add_argument("--output", type=output_path, default="",
                       help="output file (default stdout)")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        if seeded:
            p.add_argument("--master-seed", type=int, default=0)
            # a string default goes through `type` too, so a bad environment
            # value is a usage error like a bad flag
            p.add_argument("--workers", type=worker_count,
                           default=os.environ.get("HAARTRACE_WORKERS", "1"))

    p = sub.add_parser("weingarten", help="exact Weingarten table at (group, n, k)")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("cumulant", help="exact trace cumulant for a projector family")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dims", required=True, help="corner dims per factor, e.g. '2:3,2:3'")

    p = sub.add_parser("simulate", help="MC covariance/cumulant run on a grid")
    common(p, seeded=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--replicas", type=int, required=True)
    p.add_argument("--grid", default="0.25,0.5,0.75",
                   help="comma-separated axis values; the grid is their square")

    p = sub.add_parser("spectra", help="corner-product spectrum vs the limit law")
    common(p, seeded=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=fraction, required=True)
    p.add_argument("--t", type=fraction, required=True)
    p.add_argument("--replicas", type=int, required=True)
    p.add_argument("--bins", type=int, default=40)

    p = sub.add_parser("verify", help="run the exact-identity verification suite")
    common(p)
    p.add_argument("--scope", choices=["quick", "default"], default="default")
    return parser


_DISPATCH = {
    "weingarten": cmd_weingarten,
    "cumulant": cmd_cumulant,
    "simulate": cmd_simulate,
    "spectra": cmd_spectra,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(**{key: val for key, val in vars(args).items()
                          if key in RunConfig.__dataclass_fields__})
    started = time.time()
    try:
        records, code = _DISPATCH[args.command](config)
    except SingularGramError as exc:
        print(f"error: singular Gram matrix at (n={config.n}, k={config.k or config.r}): {exc}",
              file=sys.stderr)
        return 2
    except (ValueError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError) as exc:
        # numpy raises OverflowError for a size or index that no C integer holds
        problem = "ran out of memory" if isinstance(exc, MemoryError) else "has sizes too large"
        print(f"error: {config.command} {problem} at n={config.n} "
              f"with {config.replicas} replicas", file=sys.stderr)
        return 2
    _write_report(config, records, started)
    if args.command == "simulate":
        print(_simulate_summary(records), file=sys.stderr)
    if args.command == "verify":
        for rec in records:
            print(f"{rec['status']:>4}  {rec['identity']} ({rec['checks']} checks)",
                  file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
