"""Set-up probe: a fresh process that gets ready to run one workload.

Usage: python3 perfbench/probe.py <workload> <seed>

Imports the package from the checkout, samples one untimed warm-up replica
on Monte Carlo workloads, and prints the wall-clock time (`time.time()`)
at which it became ready.  The benchmark subtracts its launch time.
"""
import sys
import time

from workloads import build, import_haartrace


def main() -> None:
    wl = build(sys.argv[1], int(sys.argv[2]))
    import_haartrace()
    if wl.warmup:
        from haartrace.sampling import SeedSpec, haar_sample
        haar_sample(*wl.warmup, SeedSpec(int(sys.argv[2]), 0))
    print(repr(time.time()))


if __name__ == "__main__":
    main()
