"""Time the set-up of one workload in a fresh interpreter and print it in seconds.

Set-up is what a user pays before the first round: importing csacode (and
numpy with it), constructing the round parameters and generating the first
inputs.  ``run.py`` starts this several times and reports the median:

    python3 perfbench/setup_probe.py --workload cdbmm-large --seed 1
"""

import argparse
import os
import sys
import time

T0 = time.perf_counter()
os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    import workloads  # imports numpy and csacode

    rounds = workloads.build(workloads.WORKLOADS[args.workload])
    workloads.draw_op(rounds, args.seed, 0)
    print(repr(time.perf_counter() - T0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
