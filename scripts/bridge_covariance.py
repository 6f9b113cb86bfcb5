"""Covariance of the centered corner-mass process against its limits.

Samples W(s,t) on a square grid, compares every empirical covariance entry
with the exact finite-n value and with the tied-down-bridge limit, and
prints a per-pair table.  This is the experiment behind the bridge-limit
acceptance run, with all knobs exposed.

    python scripts/bridge_covariance.py --group unitary --n 400 --replicas 5000
"""
import argparse
import math
import sys

from haartrace.cli import RunConfig, cmd_simulate, parse_grid, worker_count


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--group", choices=["unitary", "orthogonal"], default="unitary")
    ap.add_argument("--n", type=int, default=400)
    ap.add_argument("--replicas", type=int, default=5000)
    ap.add_argument("--axis", dest="grid", metavar="AXIS", default="0.25,0.5,0.75")
    ap.add_argument("--master-seed", type=int, default=2027)
    ap.add_argument("--workers", type=worker_count, default=1)
    args = ap.parse_args()

    # `simulate` checks replicas, n and the seed before sampling; the axis is
    # checked here first so that its errors name --axis, not --grid
    try:
        parse_grid(args.grid, "--axis")
        print(f"sampling {args.replicas} replicas of {args.group} n={args.n} ...",
              file=sys.stderr)
        records = [r for r in cmd_simulate(RunConfig("simulate", **vars(args)))[0]
                   if r["kind"] == "covariance"]
    except ValueError as exc:
        ap.error(str(exc))

    header = f"{'pair':>24}  {'estimate':>10}  {'se':>8}  {'exact':>10}  {'limit':>10}  {'z':>6}"
    print(header, "-" * len(header), sep="\n")
    worst = 0.0
    for r in records:
        est, se, exact, limit = r["estimate"], r["se"], r["exact_float"], r["limit"]
        z = abs(est - exact) / se if se else 0.0
        worst = max(worst, z)
        print(f"({r['s']:.2f},{r['t']:.2f})x({r['s2']:.2f},{r['t2']:.2f})"
              f"  {est:>10.6f}  {se:>8.6f}  {exact:>10.6f}  {limit:>10.6f}  {z:>6.2f}")
    print(f"worst |z| vs exact finite-n: {worst:.2f} "
          f"(4 is the acceptance threshold; limit policy adds 0.01 slack)")
    # unitary records carry the beta = 2 limit; the covariance is symmetric in its points
    finite_gap = (max(abs(r["exact_float"] - r["limit"]) for r in records)
                  if args.group == "unitary" else math.nan)
    print(f"largest finite-n bias vs limit on this grid: {finite_gap:.2e}")


if __name__ == "__main__":
    main()
