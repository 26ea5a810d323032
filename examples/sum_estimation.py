"""Compare all six mechanisms on distributed sum estimation (Section 6.1).

A miniature of the paper's Figure 1: n points on the unit L2 sphere,
per-dimension mse at several privacy levels, for SMM and every baseline,
at one (modulus, gamma) operating point.  Use ``--dimension 65536`` and
``--epsilons 1 2 3 4 5`` for the full paper workload (slower).

Run:
    python examples/sum_estimation.py [--dimension 4096] [--bits 14]
"""

import argparse

import numpy as np

from repro import CompressionConfig, PrivacyBudget
from repro.mechanisms import build_mechanism
from repro.sumestimation import (
    format_results_table,
    run_sum_estimation,
    sample_sphere,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--participants", type=int, default=100)
    parser.add_argument("--dimension", type=int, default=4096)
    parser.add_argument("--bits", type=int, default=14,
                        help="communication bitwidth per dimension")
    parser.add_argument("--gamma", type=float, default=None,
                        help="scale parameter (default: m / 256)")
    parser.add_argument("--epsilons", type=float, nargs="+",
                        default=[1.0, 3.0, 5.0])
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    modulus = 2**args.bits
    gamma = args.gamma if args.gamma is not None else modulus / 256.0
    compression = CompressionConfig(modulus=modulus, gamma=gamma)
    print(f"n={args.participants}, d={args.dimension}, "
          f"m=2^{args.bits}, gamma={gamma}\n")

    rng = np.random.default_rng(args.seed)
    values = sample_sphere(args.participants, args.dimension, rng)

    results = []
    for epsilon in args.epsilons:
        for name in ("gaussian", "smm", "skellam", "ddg", "dgm", "cpsgd"):
            result = run_sum_estimation(
                build_mechanism(name, compression),
                values,
                PrivacyBudget(epsilon=epsilon),
                rng,
                trials=args.trials,
            )
            results.append(result)
            print(f"eps={epsilon:4.1f}  {name:9s} mse={result.mse:12.4g}")

    print("\n" + format_results_table(results))


if __name__ == "__main__":
    main()
