"""Covariance of the centered corner-mass process against its limits.

Samples W(s,t) on a square grid, compares every empirical covariance entry
with the exact finite-n value and with the tied-down-bridge limit, and
prints a per-pair table.  This is the experiment behind the bridge-limit
acceptance run, with all knobs exposed.

    python scripts/bridge_covariance.py --group unitary --n 400 --replicas 5000
"""
import argparse
import math

from haartrace.cli import parse_grid, worker_count
from haartrace.cumulants import limit_covariance, process_covariance
from haartrace.empirics import (
    check_covariance_replicas,
    covariance_mc,
    floor_index,
    sample_process_values,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--group", choices=["unitary", "orthogonal"], default="unitary")
    ap.add_argument("--n", type=int, default=400)
    ap.add_argument("--replicas", type=int, default=5000)
    ap.add_argument("--axis", default="0.25,0.5,0.75")
    ap.add_argument("--master-seed", type=int, default=2027)
    ap.add_argument("--workers", type=worker_count, default=1)
    args = ap.parse_args()

    try:
        axis = parse_grid(args.axis, "--axis")
        check_covariance_replicas(args.replicas)
        points = [(s, t) for s in axis for t in axis]
        dims = [(floor_index(args.n, s), floor_index(args.n, t)) for s, t in points]
    except ValueError as exc:
        ap.error(str(exc))
    beta = 2 if args.group == "unitary" else 1

    print(f"sampling {args.replicas} replicas of {args.group} n={args.n} ...")
    values = sample_process_values(args.group, args.n, points, args.replicas,
                                   args.master_seed, workers=args.workers)
    est, se = covariance_mc(values)
    points = [(float(s), float(t)) for s, t in points]

    header = f"{'pair':>24}  {'estimate':>10}  {'se':>8}  {'exact':>10}  {'limit':>10}  {'z':>6}"
    print(header)
    print("-" * len(header))
    worst = 0.0
    for a in range(len(points)):
        for b in range(a, len(points)):
            s1, t1 = points[a]
            s2, t2 = points[b]
            exact = float(process_covariance(args.group, args.n, dims[a], dims[b]))
            limit = limit_covariance(s1, t1, s2, t2, beta)
            z = abs(est[a, b] - exact) / se[a, b] if se[a, b] else 0.0
            worst = max(worst, z)
            print(f"({s1:.2f},{t1:.2f})x({s2:.2f},{t2:.2f})"
                  f"  {est[a, b]:>10.6f}  {se[a, b]:>8.6f}"
                  f"  {exact:>10.6f}  {limit:>10.6f}  {z:>6.2f}")
    print(f"worst |z| vs exact finite-n: {worst:.2f} "
          f"(4 is the acceptance threshold; limit policy adds 0.01 slack)")
    finite_gap = max(
        abs(float(process_covariance(args.group, args.n, d1, d2)) - limit_covariance(*x1, *x2, 2))
        for d1, x1 in zip(dims, points) for d2, x2 in zip(dims, points)
    ) if args.group == "unitary" else math.nan
    print(f"largest finite-n bias vs limit on this grid: {finite_gap:.2e}")


if __name__ == "__main__":
    main()
