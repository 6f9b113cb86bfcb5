"""Empirical spectrum of the corner product vs the Kesten-McKay limit.

Pools eigenvalues of H = V V* over replicas, prints the histogram next to
the bin-averaged limit density, the L1 distance, and the mean eigenvalue
beside its exact value q/n and its limit t.

    python scripts/spectral_limit.py --n 400 --s 0.3 --t 0.5 --replicas 50
"""
import argparse

from haartrace.cli import fraction
from haartrace.empirics import spectral_compare


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--group", choices=["unitary", "orthogonal"], default="unitary")
    ap.add_argument("--n", type=int, default=400)
    # exact decimals, so the corner floor(n s) x floor(n t) needs no rounding
    ap.add_argument("--s", type=fraction, default="0.3")
    ap.add_argument("--t", type=fraction, default="0.5")
    ap.add_argument("--replicas", type=int, default=50)
    ap.add_argument("--bins", type=int, default=40)
    ap.add_argument("--master-seed", type=int, default=1005)
    args = ap.parse_args()

    try:
        res = spectral_compare(args.n, args.s, args.t, args.replicas,
                               args.master_seed, group=args.group, bins=args.bins)
    except ValueError as exc:
        ap.error(str(exc))
    for warning in res.warnings:
        print(f"warning: {warning}")
    print(f"{'bin':>14}  {'empirical':>10}  {'reference':>10}")
    for lo, hi, e, r in zip(res.bin_edges[:-1], res.bin_edges[1:],
                            res.empirical_mass, res.reference_mass):
        bar = "#" * int(200 * e)
        print(f"[{lo:5.3f},{hi:5.3f})  {e:>10.5f}  {r:>10.5f}  {bar}")
    print(f"L1 distance: {res.l1_distance:.4f}")
    print(f"mean eigenvalue: {res.mean_eigenvalue:.5f} +- {res.mean_se:.5f} "
          f"(exact: q/n = {res.q / args.n}; limit: t = {float(args.t)})")


if __name__ == "__main__":
    main()
