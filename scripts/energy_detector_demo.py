"""Trace the s-energy divergence detector across the dimension boundary.

For a reference measure of known dimension D, the empirical mean of
|x - y|^-s over sampled pairs settles for s < D and keeps drifting for
s > D.  The detector watches the running mean over the last three pair-
sample doublings.  Two sampling regimes matter: the convergent side
wants the cloud's distance floor exhausted (coarse cloud), while the
divergent side wants the floor out of the sampler's reach (fine cloud).
This script prints the flag on both clouds across an s-grid.
"""

import argparse

import numpy as np

from fractdim.dimest import pair_estimates
from fractdim.ifs import SimilarityIFS, sample_points
from fractdim.measures import BernoulliMeasure


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=300_000)
    ap.add_argument("--seed", type=int, default=17)
    args = ap.parse_args()

    ifs = SimilarityIFS(
        ratios=np.array([1 / 3, 1 / 3]),
        translations=np.array([[0.0], [2 / 3]]),
    )
    measure = BernoulliMeasure([0.5, 0.5])
    dim = np.log(2) / np.log(3)

    coarse = sample_points(ifs, measure, args.count, tol=1e-5, seed=args.seed)
    fine = sample_points(ifs, measure, args.count, tol=1e-12, seed=args.seed)
    offsets = (-0.3, -0.2, -0.1, 0.1, 0.2, 0.3, 0.5)
    # one pair draw and one pass per cloud give every exponent's energy
    columns = [
        pair_estimates(cloud, exponents=[dim + o for o in offsets], seed=args.seed)[1]
        for cloud in (coarse, fine)
    ]
    print(f"Cantor measure, D = {dim:.5f}, N = {args.count}")
    print(f"{'s':>8} {'s - D':>8} {'coarse':>18} {'fine':>18}")
    for offset, *ests in zip(offsets, *columns):
        rows = []
        for est in ests:
            drift = abs(est.value - est.half_value) / est.value
            label = "DIVERGED" if est.diverged else "stable"
            rows.append(f"{label:>9} {100 * drift:6.1f}%")
        print(f"{dim + offset:>8.4f} {offset:>+8.1f} {rows[0]:>18} {rows[1]:>18}")
    print()
    print("reading: the fine cloud flags every s above D; the coarse cloud's")
    print("distance floor truncates the singularity, so its mean settles even")
    print("slightly above D once the pair sampler has seen the whole cloud.")


if __name__ == "__main__":
    main()
