#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report each end-to-end
metric's median and spread (distance between first and third quartile, as a
share of the median) against its bound in ``BENCHMARK.json``.

    python3 perfbench/record.py --workloads screen_cmi --seeds 0 1 2 3 4
    python3 perfbench/record.py --seeds 0 1 2 3 4 5 6 7 8 9 --out perfbench/baseline.json

Runs execute one after another, one process each. With ``--out`` it writes a
run record: machine, git SHA, seeds, workload definitions, metric
definitions, every run's values and the per-workload medians and spreads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

from workloads import PHASES, WORKLOADS  # noqa: E402  (after disabling bytecode files)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=False, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    machine = next((json.loads(line[len("machine: "):]) for line in lines
                    if line.startswith("machine: ")), {})
    return {"machine": machine, "result": json.loads(lines[-1])}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def git_sha() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    return proc.stdout.strip() or "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    runs: dict[str, list[dict]] = {}
    summary: dict[str, dict] = {}
    machine = {}
    ok = True
    for wl in args.workloads:
        runs[wl] = []
        for seed in args.seeds:
            got = run_once(wl, seed, args.seconds, args.trace)
            machine = got["machine"]
            res = got["result"]
            values = {k: v["value"] for k, v in res["metrics"].items()}
            runs[wl].append({"seed": seed, "correct": res["correct"],
                             "attempted": res["attempted"], "failed": res["failed"],
                             "values": values})
            ok &= res["correct"]
            print(f"{wl} seed {seed}: correct={res['correct']} " + " ".join(
                f"{k}={v:.5g}" for k, v in values.items() if args.trace == 0 or k in PHASES),
                flush=True)
        summary[wl] = {}
        for m in metrics:
            vals = [r["values"][m["name"]] for r in runs[wl]]
            if len(vals) < 2:
                continue
            q1, med, q3, rel = spread(vals)
            summary[wl][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": rel}
            if args.trace == 0:
                b = bounds[m["name"]]
                flag = "ok" if m["name"] == "setup_s" or rel < b / 3 else "WIDE"
                print(f"  {wl:<15} {m['name']:<14} median {med:.6g} {m['unit']:<3} "
                      f"spread {rel:.4f} (bound {b}, {flag})")

    if args.out:
        record = {
            "machine": machine,
            "git_sha": git_sha(),
            "seeds": args.seeds,
            "seconds": args.seconds,
            "trace": args.trace,
            "workloads": {name: {"why": w.why, "phases": list(w.phases),
                                 "timed_commands": [c[1][0:1] + c[1][3:] for c in
                                                    w(0, Path("w")).timed_commands()]}
                          for name, w in WORKLOADS.items()},
            "metrics": metrics,
            "summary": summary,
            "runs": runs,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
