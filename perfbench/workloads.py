"""Workload definitions, the package import, and the output checks.

A workload is a fixed list of `haartrace` CLI commands; running the list
once is one *report*.  Inputs depend only on the seed and on the `tiny`
flag that the smoke test sets.  This module imports nothing heavy at top
level, so the set-up probe can time the package import itself.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

# Check counts of `verify --scope default` at the seed commit.  A change that
# alters the suite's coverage changes these and counts as a failed report.
VERIFY_DEFAULT_CHECKS = {
    "mobius-inversion": 434,
    "gram-inverse-unitary": 12,
    "gram-inverse-orthogonal": 9,
    "weingarten-closed-forms": 35,
    "oracle-equivalence-unitary": 362,
    "oracle-equivalence-orthogonal": 267,
    "covariance-closed-form": 2177,
    "variance-closed-form-orthogonal": 61,
}


def import_haartrace():
    """Import `haartrace.cli` from this checkout's `src`, never from elsewhere.

    Exits with a non-zero code when the checkout holds no package source, so a
    benchmark copied without the program fails instead of measuring an
    installed copy.
    """
    if not (SRC / "haartrace" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'haartrace'}")
    sys.path.insert(0, str(SRC))
    import haartrace.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "haartrace":
        sys.exit(f"perfbench: imported haartrace from {cli.__file__}, not from {SRC}")
    return cli


@dataclass(frozen=True)
class Simulate:
    """One `haartrace simulate` command on the square of a grid axis."""

    group: str
    n: int
    axis: tuple[str, ...]
    replicas: int
    master_seed: int
    workers: int

    def argv(self, output: Path) -> list[str]:
        return ["simulate", "--group", self.group, "--n", str(self.n),
                "--replicas", str(self.replicas), "--grid", ",".join(self.axis),
                "--master-seed", str(self.master_seed), "--workers", str(self.workers),
                "--output", str(output)]

    def points(self) -> list[tuple[Fraction, Fraction]]:
        ax = [Fraction(x) for x in self.axis]
        return [(s, t) for s in ax for t in ax]


@dataclass(frozen=True)
class Verify:
    """`haartrace verify`, the exact-identity suite; it takes no seed."""

    scope: str

    def argv(self, output: Path) -> list[str]:
        return ["verify", "--scope", self.scope, "--output", str(output)]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple

    @property
    def replicas(self) -> int:
        return sum(c.replicas for c in self.commands if isinstance(c, Simulate))

    @property
    def serial(self) -> bool:
        """Whether every command runs its work on one worker thread."""
        return all(getattr(c, "workers", 1) == 1 for c in self.commands)

    @property
    def warmup(self):
        """(group, n) of the untimed warm-up replica, or None for exact work."""
        first = self.commands[0]
        return (first.group, first.n) if isinstance(first, Simulate) else None


WORKLOADS = ("mc_bridge", "mc_wide_grid", "exact_verify")


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload's commands for one seed; `tiny` shrinks them for the smoke test."""
    if name == "mc_bridge":
        n, reps = (24, 100) if tiny else (400, 100)
        axis = ("0.25", "0.5", "0.75")
        return Workload(name, tuple(
            Simulate(g, n, axis, reps, seed, workers=2) for g in ("unitary", "orthogonal")))
    if name == "mc_wide_grid":
        n, reps = (8, 100) if tiny else (16, 5000)
        axis = tuple(f"0.{i}" for i in range(1, 10))
        return Workload(name, (Simulate("orthogonal", n, axis, reps, seed, workers=1),))
    if name == "exact_verify":
        return Workload(name, (Verify("quick" if tiny else "default"),))
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def reference(cmd, cm) -> dict | None:
    """Exact covariances of a simulate grid, by a route the report does not use.

    The report takes unitary values from `covariance_closed` and orthogonal
    ones from the closed double sum; here unitary values come from the
    double sum `trace_cumulant` and orthogonal ones from the moment oracle
    `cumulant_via_moments`.  Keyed by the grid-point index pair (a, b), a <= b.
    """
    if not isinstance(cmd, Simulate):
        return None
    dims = [(math.floor(cmd.n * s), math.floor(cmd.n * t)) for s, t in cmd.points()]
    out = {}
    for a, d1 in enumerate(dims):
        for b in range(a, len(dims)):
            d2 = dims[b]
            if 0 in (*d1, *d2):
                exact = Fraction(0)
            else:
                fam = cm.ProjectorFamily(cmd.n, (d1, d2))
                if cmd.group == "unitary":
                    exact = cm.trace_cumulant(cm.CumulantRequest("unitary", 2, fam))
                else:
                    exact = cm.cumulant_via_moments("orthogonal", fam)
            out[(a, b)] = _frac_str(exact)
    return out


_FLOAT_FIELDS = {
    "covariance": ("estimate", "se", "exact_float", "limit"),
    "kstats": ("k2", "se2", "k3", "se3", "k4", "se4"),
}


def check(cmd, ref, code: int, report: dict) -> tuple[list[str], int]:
    """Problems found in one command's report, and its count of 4-SE misses.

    A 4-SE miss is a statistical verdict, not a failure: it is counted and
    only has to agree with the exit code.
    """
    if isinstance(cmd, Verify):
        problems = [] if code == 0 else [f"verify exit code {code}"]
        seen = {r["identity"]: r for r in report["body"]["records"]}
        want = (VERIFY_DEFAULT_CHECKS if cmd.scope == "default"
                else {name: row["checks"] for name, row in seen.items()})
        if set(seen) != set(want):
            return problems + [f"verify identities {sorted(seen)}"], 0
        for name, row in seen.items():
            if row["status"] != "pass" or row["failures"] != 0:
                problems.append(f"{name}: {row['status']} {row['detail']}")
            if row["checks"] != want[name]:
                problems.append(f"{name}: {row['checks']} checks, seed ran {want[name]}")
        return problems, 0

    problems: list[str] = []
    rows = report["body"]["records"]
    pts = cmd.points()
    g = len(pts)
    cov = [r for r in rows if r.get("kind") == "covariance"]
    ks = [r for r in rows if r.get("kind") == "kstats"]
    if len(cov) != g * (g + 1) // 2 or len(ks) != g or len(rows) != len(cov) + len(ks):
        return [f"{len(rows)} records, expected {g * (g + 1) // 2 + g}"], 0
    pairs = [(a, b) for a in range(g) for b in range(a, g)]
    misses = 0
    for (a, b), row in zip(pairs, cov):
        got = (row["s"], row["t"], row["s2"], row["t2"])
        if got != tuple(float(x) for x in (*pts[a], *pts[b])):
            problems.append(f"record ({a},{b}) sits at {got}")
        if row["exact"] != ref[(a, b)]:
            problems.append(f"exact at ({a},{b}): {row['exact']} != {ref[(a, b)]}")
        if row["within_4se_of_exact"] == "false":
            misses += 1
    for row in rows:
        for key in _FLOAT_FIELDS[row["kind"]]:
            if not math.isfinite(row[key]):
                problems.append(f"{row['kind']} {key} at ({row['s']},{row['t']}) is {row[key]}")
    want_code = 1 if misses else 0
    if code != want_code:
        problems.append(f"exit code {code} with {misses} 4-SE misses (expected {want_code})")
    return problems, misses

