#!/usr/bin/env python3
"""tsxplain benchmark: runs one workload through the public CLI entry point
``tsxplain.cli.main(argv)`` and prints its metrics.

    python3 perfbench/run.py --workload train_cv --seed 0 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 0     # every workload, one process each

Run it from the root of a source checkout; it imports the package from
``src/`` and exits with code 2 when that is missing. With ``--trace 0`` it
sets up the workload three times (``setup_s`` is the median), repeats the
timed CLI commands for at least ``--seconds`` seconds and at least twice, and
reports the end-to-end metrics named in ``BENCHMARK.json``. With
``--trace 1`` it alternates untraced and traced repetitions and reports the
per-layer metrics, the phase and quality numbers and the tracing overhead.
Every run checks the outputs; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Load comes from this one process with BLAS limited to one thread. Scratch
files live under ``.perfbench_work/`` in the checkout and are removed at the
end, except the span file a traced run writes there.
"""

from __future__ import annotations

import os

# before numpy is imported, so the BLAS pool starts with one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
MIN_REPS = 2


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def machine_record() -> dict:
    import numpy as np

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = "unknown"
    with contextlib.suppress(KeyError, TypeError):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Runner:
    """Runs CLI commands in-process and counts attempted and failed operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)

    def cli(self, argv: list[str], tracer=None) -> float:
        from tsxplain.cli import main as cli_main

        self.attempted += 1
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                if tracer is None:
                    rc = cli_main(argv)
                else:
                    with tracer.span("cli." + argv[0]):
                        rc = cli_main(argv)
        except Exception:  # a traceback is a failed command, not a failed run
            traceback.print_exc()
            rc = 1
        elapsed = time.perf_counter() - t0
        if rc != 0:
            self.fail(f"tsxplain {' '.join(argv)} exited {rc}")
        return elapsed

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(f"check {name}: {detail}")


def digest(base: Path, dirs: list[Path]) -> str:
    h = hashlib.sha256()
    for d in dirs:
        for p in sorted(d.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(base)).encode() + b"\0")
                h.update(p.read_bytes())
    return h.hexdigest()


def run_rep(wl, runner: Runner, tracer=None) -> dict[str, float]:
    phases: dict[str, float] = defaultdict(float)
    for phase, argv in wl.timed_commands():
        phases[phase] += runner.cli(argv, tracer)
    return dict(phases)


def run_workload(args) -> dict:
    from probes import kernel_probes
    from tracing import Tracer, layer_metrics
    from workloads import PHASES, QUALITY, WORKLOADS

    import tsxplain.cli  # noqa: F401  (import cost is process start, not set-up)

    runner = Runner()
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, work)
    try:
        setup_times, setup_digests = [], []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            t0 = time.perf_counter()
            wl.configs()
            for argv in wl.setup_commands():
                runner.cli(argv)
            wl.after_setup()
            setup_times.append(time.perf_counter() - t0)
            setup_digests.append(digest(work, [work]))
        runner.check("setup_bytes_identical", len(set(setup_digests)) == 1,
                     f"{len(set(setup_digests))} distinct digests over {SETUP_REPEATS} set-ups")

        tracer = Tracer() if args.trace else None
        untraced: list[dict] = []
        traced: list[dict] = []
        digests = []
        start = time.perf_counter()
        while (len(untraced) + len(traced) < MIN_REPS
               or time.perf_counter() - start < args.seconds):
            traced_turn = tracer is not None and len(traced) < len(untraced)
            if traced_turn:
                tracer.run_id = len(traced)
                with tracer:
                    phases = run_rep(wl, runner, tracer)
                traced.append(phases)
            else:
                phases = run_rep(wl, runner)
                untraced.append(phases)
            digests.append(digest(work, wl.artefact_dirs()))
            print(f"{'traced' if traced_turn else 'untraced'} repetition: " + ", ".join(
                f"{k} {v:.4f} s" for k, v in phases.items()), file=sys.stderr)
        runner.check("repetition_bytes_identical", len(set(digests)) == 1,
                     f"{len(set(digests))} distinct digests over {len(digests)} repetitions")

        print(f"set-up: {', '.join(f'{t:.4f}' for t in setup_times)} s", file=sys.stderr)
        quality: dict[str, float] = {}
        t0 = time.perf_counter()
        try:
            for name, ok, detail in wl.checks():
                runner.check(name, ok, detail)
            quality = wl.quality()
        except (OSError, KeyError, ValueError, statistics.StatisticsError) as exc:
            runner.check("outputs_readable", False, repr(exc))
        print(f"checks and quality: {time.perf_counter() - t0:.4f} s", file=sys.stderr)

        walls = [sum(r.values()) for r in untraced]
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for phase in PHASES:
            values[phase] = statistics.median(r.get(phase, 0.0) for r in untraced)
        for name in QUALITY:
            values[name] = quality.get(name, 0.0)

        if tracer is not None:
            per_rep = [layer_metrics(tracer, i) for i in range(len(traced))]
            for name in per_rep[0]:
                values[name] = statistics.median(m[name] for m in per_rep)
            traced_wall = statistics.median(sum(r.values()) for r in traced)
            values["trace.overhead_frac"] = (traced_wall - values["wall_s"]) / values["wall_s"]
            tracer.write(WORK_ROOT / f"trace_{args.workload}_seed{args.seed}.jsonl")
            values.update(kernel_probes(wl.cohort()))
        values["ops_failed_frac"] = runner.failed / runner.attempted
        shown = [*wl.phases, *quality, "ops_failed_frac"]
        return {"runner": runner, "values": values, "reps": len(untraced) + len(traced),
                "shown": shown}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(args, spec: dict, result: dict) -> dict:
    runner, values = result["runner"], result["values"]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics named in BENCHMARK.json not computed: {missing}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['reps']} repetitions, {runner.attempted} operations, {runner.failed} failed")
    shown = set(result["shown"]) | {m["name"] for m in listed}
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] not in shown:
            continue
        print(f"  {m['name']:<34} {values[m['name']]:>16.6g} {m['unit']:<6} ({m['better']} is better)")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }


def run_all(args) -> int:
    """Each workload in a fresh child process, so peak RSS is its own."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = v
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tsxplain" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC}; run from a tsxplain checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    print("machine: " + json.dumps(machine_record(), sort_keys=True))
    result = run_workload(args)
    print(json.dumps(report(args, spec, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
