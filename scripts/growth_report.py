#!/usr/bin/env python3
"""Compare exact composite-row growth against the two-point model.

For each left-tail parameter m, the dominant root of x^2 = xi*x + (2 - xi)
with xi = 2 - 1/(2m+1) predicts consecutive-value ratios; this prints the
exact values, the model's exact predictions (shown to two places), and the
relative errors.
"""
import argparse

from ultraseq import TauConfig, approx_report, composite_row, omega_slice
from ultraseq.exactmath import fixed_point

ROWS = {
    1: (TauConfig(1, {5}, {1}), ()),
    2: (TauConfig(2, {6, 9}, {1, 3}), omega_slice(-4, 6)),
    3: (TauConfig(3, {8, 11, 13}, {1, 3, 6}), omega_slice(-6, 8)),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--base", type=int, default=8,
                        help="index of the first base value")
    parser.add_argument("--rmax", type=int, default=8,
                        help="prediction horizon past the base")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    for m, (config, mid) in ROWS.items():
        row = composite_row(config, mid, args.seed,
                            args.base + args.rmax + 2)
        report = approx_report(row, m, args.base, args.rmax)
        print(f"m={m}: xi={report.model.xi}, phi_m={report.model.phi_m:.6f}")
        print(f"  ratio u_{args.base + 1}/u_{args.base} = "
              f"{report.empirical_ratio:.6f} "
              f"(relative error {report.ratio_rel_error:.4%})")
        for entry in report.rows:
            print(f"  r={entry.r}: exact={entry.exact:<12d} "
                  f"predicted={fixed_point(entry.predicted, 2):<14} "
                  f"rel_error={entry.rel_error:.4%}")
        print()


if __name__ == "__main__":
    main()
