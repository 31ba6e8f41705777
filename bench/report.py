"""Run every workload at one seed, untraced and traced, and print every
metric by name and unit, with the failure ratio, output digest and tracing
overhead of each workload, and the cross-check figures of BASELINE.md.
Each run lasts ``run_seconds`` of BENCHMARK.json, as the benchmark's own
runs do.

    python3 bench/report.py --seed 1

Writes everything to ``.bench_out/BENCH-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import OUT, WORKLOADS  # noqa: E402


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    path = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    return {"summary": last, "results": json.loads(path.read_text())}


def crosscheck() -> dict:
    """Figures the ROADMAP re-anchor quotes: CLI cold start and classify on
    bv.sd, as medians of a few runs."""
    def cli(*argv):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "superdelta.cli", *argv], cwd=ROOT,
                       env={"PYTHONPATH": str(ROOT / "src")}, check=True,
                       capture_output=True)
        return time.perf_counter() - t0

    bv = str(ROOT / "fixtures" / "bv.sd")
    return {
        "cold_start_version_s": statistics.median(cli("--version") for _ in range(5)),
        "classify_bv_cli_s": statistics.median(
            cli("classify", "--input", bv, "--op", "Delta") for _ in range(3)),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    bench = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        plain = run_workload(workload, args.seed, seconds, 0)
        traced = run_workload(workload, args.seed, seconds, 1)
        res = plain["results"]
        layers = traced["summary"]["metrics"]
        bench["environment"] = res["environment"]
        bench["workloads"][workload] = {
            "end_to_end": plain["summary"]["metrics"],
            "samples": res["samples"],
            "failed_ratio": res["failed_ratio"],
            "digest": res["digest"],
            "traced_digest": traced["results"]["digest"],
            "by_kind": res["by_kind"],
            "repeat_ratio": res["repeat_ratio"],
            "raw": res["raw"],
            "host_factor": res["host_factor"],
            "host_drift": res["host_drift"],
            "tracing_overhead": layers["trace.overhead_ratio"]["value"],
            "per_layer": layers,
        }
        print(f"{workload}: {res['attempted']} ops, failed_ratio "
              f"{res['failed_ratio']:.4g}, digest {res['digest'][:16]}, "
              f"tracing overhead {layers['trace.overhead_ratio']['value']:+.1%}, "
              f"host factor {res['host_factor']:.2f}, drift {res['host_drift']:.1%}")
        for name, m in plain["summary"]["metrics"].items():
            print(f"  {name:12s} {m['value']:12.4f} {m['unit']}")
        print(f"  {'op_p90_ms':12s} over {res['samples']} samples "
              f"in {res['passes']} passes")
    bench["crosscheck"] = crosscheck()
    for name, value in bench["crosscheck"].items():
        print(f"{name}: {value:.3f} s")
    path = OUT / f"BENCH-seed{args.seed}.json"
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(f"written {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
