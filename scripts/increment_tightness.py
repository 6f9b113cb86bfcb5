"""Fourth moments of dyadic block increments: the tightness surrogate.

For dyadic blocks B the bound E[W(B)^4] <= C (dp dq / n^2)^2 controls
tightness of the process family; this script fits the constant per matrix
size and reports its stability.

    python scripts/increment_tightness.py --sizes 64,128,256 --replicas 800
"""
import argparse

from haartrace.empirics import increment_fourth_moment_fit


def integers(text: str) -> tuple[int, ...]:
    """Argument type: comma-separated integers; argparse names a bad value."""
    return tuple(int(x) for x in text.split(","))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--group", choices=["unitary", "orthogonal"], default="unitary")
    ap.add_argument("--sizes", type=integers, default="64,128,256")
    ap.add_argument("--replicas", type=int, default=800)
    ap.add_argument("--levels", type=integers, default="1,2,3")
    ap.add_argument("--master-seed", type=int, default=4101)
    args = ap.parse_args()

    constants = []
    for n in args.sizes:
        try:
            fit = increment_fourth_moment_fit(args.group, n, args.replicas,
                                              args.master_seed, levels=args.levels)
        except ValueError as exc:
            ap.error(str(exc))
        constants.append(fit.c_max)
        print(f"n={n:4d}: fitted C = {fit.c_max:8.3f}  over {len(fit.blocks)} blocks")
        for lev in args.levels:
            sel = [r for (blk, r) in zip(fit.blocks, fit.ratios) if blk[0] == lev]
            print(f"   level {lev}: max ratio {max(sel):8.3f}  mean {sum(sel)/len(sel):8.3f}")
    spread = max(constants) / min(constants)
    print(f"stability across sizes: x{spread:.2f} (< 2 expected)")


if __name__ == "__main__":
    main()
