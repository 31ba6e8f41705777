"""The superdelta benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload derived-brackets --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout; the engine is imported from
``src/``.  Set-up is timed in fresh interpreters that stop once they are
ready for their first op (import plus building the seeded inputs of the
first pass), some before the measured run and some after it, and reported
as the median.  The measured run is a separate worker process (see
``worker.py``) and lasts ``--seconds``.  Every op is checked for exact
correctness.  Times are divided by the host factor of ``hostspeed.py``,
so that they read as on the reference machine; the results file keeps the
raw ones too.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The full results
(environment, per-kind latencies, output digest, failures) go to
``.bench_out/result-<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("derived-brackets", "density-geometry", "cli-session")
# set-up is the median of the fresh interpreters timed before the measured
# run and after it, so that one slow spell of the host moves few of them
SETUP_BEFORE, SETUP_AFTER = 5, 4
DEADLINE_S = 170


def _commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _spawn(args: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker; return (seconds until it printed READY, the rest of
    its stdout).  The worker is killed at the deadline.  Workers share one
    bytecode cache under .bench_out, whatever the caller's environment says
    about writing bytecode, so that no worker but the first compiles the
    sources: compiling would add to both set-up time and peak memory."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=str(OUT / "pycache"),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready.strip() != "READY":
        raise RuntimeError(f"worker failed (exit code {proc.returncode})")
    return setup, rest


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "superdelta" / "__init__.py").is_file():
        print(f"error: no engine source at {ROOT / 'src' / 'superdelta'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--workdir", str(workdir)]
    setup, setup_raw = [], []

    def time_setups(n):
        """Time n set-ups, each divided by the host factor around it."""
        for _ in range(n):
            before = hostspeed.factor_now()
            t = _spawn(common + ["--setup-only"], deadline)[0]
            setup.append(t / ((before + hostspeed.factor_now()) / 2))
            setup_raw.append(t)

    try:
        _spawn(common + ["--setup-only"], deadline)  # fills the bytecode cache
        if not args.trace:
            time_setups(SETUP_BEFORE)
        out = _spawn(common, deadline)[1]
        if not args.trace:
            time_setups(SETUP_AFTER)
    except RuntimeError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res = json.loads(out.strip().splitlines()[-1])

    failed = len(res["failures"])
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layer_metrics"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": res["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": res["op_p50_ms"], "unit": "ms"},
            "op_p90_ms": {"value": res["op_p90_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    res.update(
        workload=args.workload, setup_s=setup, setup_raw_s=setup_raw,
        failed_ratio=failed / res["attempted"],
        environment={
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": _commit(), "seed": args.seed,
            "seconds": args.seconds, "trace": bool(args.trace),
        })
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(res, indent=1, sort_keys=True) + "\n")

    for msg in res["failures"][:10]:
        print(f"FAILED {msg}")
    print(f"{args.workload} seed {args.seed}: {res['attempted']} ops in "
          f"{res['passes']} passes, failed_ratio {res['failed_ratio']:.4g}, "
          f"digest {res['digest'][:16]}, results in {path.relative_to(ROOT)}")
    raw = dict(res["raw"], setup_s=statistics.median(setup_raw) if setup_raw else None)
    print(f"host factor {res['host_factor']:.3f} (drift over the run "
          f"{res['host_drift']:.1%}); the timings are divided by it, raw ones in []")
    for name, m in metrics.items():
        unscaled = f"[{raw[name]:.6g}]" if raw.get(name) is not None else ""
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']:6s} {unscaled}")
    print(json.dumps({"correct": failed == 0, "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
