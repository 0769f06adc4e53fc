"""Re-measure the verdict and rate claims of ROADMAP.md's baseline on one seed.

    python3 perfbench/claims.py --seed 9001 [--runs 200]

The claims, each measured over ``--runs`` configs made from ``--seed``:

- the paired-seed sifted-rate ratio (mask on / mask off) is about 0.5;
- about 1% of 100k-bit runs abort with no attack at p_dark_mon=1e-5;
- the AND mask is detected in about 98% of 100k-bit runs and 45.5% of
  10k-bit runs at p_dark_mon=1e-5.

A rate claim holds when the baseline figure lies inside the 95% Wilson
interval of the new measurement.  Prints one JSON object per claim.
"""

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cowsim  # noqa: E402
from workloads import derive_seeds  # noqa: E402


def wilson(k: int, n: int, z: float = 1.96) -> tuple[float, float]:
    p = k / n
    centre = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / (1 + z * z / n)
    return max(0.0, centre - half), min(1.0, centre + half)


def abort_rate(base, seeds, attack) -> tuple[int, int]:
    aborts = sum(cowsim.run(replace(base, seed=s, attack=attack))[0].verdict == "abort" for s in seeds)
    return aborts, len(seeds)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--runs", type=int, default=200)
    args = ap.parse_args(argv)
    seeds = derive_seeds(args.seed, 9, args.runs)
    big = cowsim.SimConfig(n_bits=100_000, p_dark_mon=1e-5)
    small = replace(big, n_bits=10_000)

    sifted = {}
    for attack in (cowsim.Attack.NONE, cowsim.Attack.AND_MASK):
        sifted[attack] = sum(cowsim.run(replace(small, seed=s, attack=attack))[0].sifted_len for s in seeds)
    ratio = sifted[cowsim.Attack.AND_MASK] / sifted[cowsim.Attack.NONE]
    print(json.dumps({"claim": "sifted-rate ratio ~0.5 (10k bits, paired seeds)", "value": ratio,
                      "holds": 0.48 <= ratio <= 0.52}))

    for label, base, attack, baseline in (
        ("false alarms ~1% (100k bits, no attack)", big, cowsim.Attack.NONE, 0.01),
        ("detection power 98% (100k bits, AND mask)", big, cowsim.Attack.AND_MASK, 0.98),
        ("detection power 45.5% (10k bits, AND mask)", small, cowsim.Attack.AND_MASK, 0.455),
    ):
        k, n = abort_rate(base, seeds, attack)
        lo, hi = wilson(k, n)
        print(json.dumps({"claim": label, "aborts": k, "runs": n, "value": k / n,
                          "wilson95": [lo, hi], "baseline": baseline, "holds": lo <= baseline <= hi}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
