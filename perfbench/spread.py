"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload seed-sweep --seeds 1-10 [--seconds 10]

Runs the benchmark once per seed, one run at a time, and prints each
metric's median and its quartile spread, (Q3 - Q1) / median, with the
quartiles of ``statistics.quantiles(values, n=4)``, next to the bound in
BENCHMARK.json.  A spread under a third of the bound is steady.  It also
prints the same for the unscaled host timings from each run's record.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, default=None, help="defaults to run_seconds")
    ap.add_argument("--out", type=Path, help="append each run's record and result to this JSONL file")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    values: dict[str, list[float]] = {}
    host: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True, timeout=600).stdout
        *_, record_line, result_line = out.strip().splitlines()
        result = json.loads(result_line)
        for name, value in json.loads(record_line)["record"]["host"].items():
            host.setdefault(name, []).append(value)
        if args.out:
            with args.out.open("a") as f:
                f.write(json.dumps({**json.loads(record_line), **result}) + "\n")
        shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {shown}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        verdict = "ok" if spread < metric["bound"] / 3 else "WIDE"
        if metric["name"] == "setup_s":
            verdict = "(only its median is compared)"
        print(f"{metric['name']:>12}: median {med:.6g}  spread {spread:.3f}  bound {metric['bound']}  {verdict}")
    for name, vals in host.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:>12}: unscaled host time: median {med:.6g}  spread {(q3 - q1) / med:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
