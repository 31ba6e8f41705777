"""One benchmark process.

It builds the schedule of pass 0 from the seed, prints ``READY`` (the
parent times set-up up to that line), then runs a closed loop -- one
client, one thread, the next op starts when the previous one has returned
-- pass after pass.  Every pass runs a fresh schedule, built untimed just
before it from ``Random(f"{workload}:{seed}:{pass}")``, so no two passes
compute the same thing; only the requests on the shipped fixtures repeat.
The last stdout line is a JSON document with the raw results.

An untraced run makes the number of whole passes that best fills
``--seconds`` of wall time, checks and schedule building included: after
each pass it starts another while at least half a pass's time is left.
Every pass holds the same mix of ops, so a run's figures do not depend on
where it stopped.  A faster engine fits more passes into the run; each
timing metric is a mean or a quantile over every op run, each op timed
once, so the number of passes does not bias it.  Only pass 0 goes into
the output digest, so that every run at one seed digests the same
outputs.  The per-pass figures go into the results alongside.

Just before each op, untimed, the worker runs the host-speed probe of
``hostspeed.py``, and each latency is divided by the host factor around
its op: the timing metrics read as on the reference machine, whatever
other tenants of a shared host did meanwhile.  The results also give the
raw figures, the median host factor and ``host_drift``, how far the
per-pass host factor moved over the run.

With ``--trace 1`` the run makes a fixed number of passes
(``trace_passes``, from ``--seconds`` alone), so that its counts repeat
exactly, and every pass runs its schedule twice, untraced and then
traced; the untraced runs give the per-subcommand latencies and the
baseline of the tracing overhead, and the per-layer metrics of
``tracing.Tracer`` are reported per pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracing import SUBCOMMANDS, Tracer  # noqa: E402

# op time of one pass at the seed commit on the reference machine (see
# BASELINE.md); a traced run makes seconds / 3 / PASS_S passes, each of them
# twice, on every commit
PASS_S = {"derived-brackets": 5.0, "density-geometry": 3.3, "cli-session": 5.5}
# no further traced pass starts after this much wall time, so that a traced
# run of a much slower engine still ends in time; the results then say so
TRACE_CAP_S = 90.0
# the repeated fixture requests may not get this much faster after pass 0
REPEAT_RATIO_MIN = 0.5


def trace_passes(workload: str, seconds: float) -> int:
    return max(1, round(seconds / 3 / PASS_S[workload]))


def build(workload: str, seed: int, pass_no: int, workdir: Path | None) -> list:
    """The op schedule of one pass; cli-session writes its generated modules
    and its copies of the fixtures under ``workdir/pass<n>``."""
    rng = random.Random(f"{workload}:{seed}:{pass_no}")
    if workload == "derived-brackets":
        return workloads.derived_brackets(rng)
    if workload == "density-geometry":
        return workloads.density_geometry(rng)
    if workload == "cli-session":
        where = workdir / f"pass{pass_no}"
        where.mkdir(parents=True, exist_ok=True)
        return workloads.cli_session(rng, str(where), str(ROOT / "fixtures"))
    raise ValueError(f"unknown workload {workload!r}")


def run_pass(ops, pass_no, digest=None, tracer=None):
    """Run every op once, in schedule order, each just after one host-speed
    probe.  Returns the latencies, the host factors of the ops and the
    failure messages; an op that raises, or whose exact check fails, is a
    failure."""
    clock = time.perf_counter
    lat, probes, starts, failures = [], [], [], []
    for i, op in enumerate(ops):
        probes.append(hostspeed.probe())
        if tracer is not None:
            tracer.op_id = pass_no * 100_000 + i
            tracer.active = True
        t0 = clock()
        try:
            res = op.run()
            err = None
        except Exception as ex:  # counted as a failed op, never dropped
            err = ex
        lat.append(clock() - t0)
        starts.append(t0)
        if tracer is not None:
            tracer.active = False
        if err is None:
            try:
                ok, text = op.check(res)
            except Exception as ex:
                ok, text = False, f"check raised {type(ex).__name__}: {ex}"
        else:
            ok, text = False, f"raised {type(err).__name__}: {err}"
        if not ok:
            failures.append(f"pass {pass_no} op {i} ({op.kind}): {text[:300]}")
        if digest is not None:
            digest.update(text.encode("utf-8") + b"\0")
    return lat, hostspeed.factors(probes, starts, lat), failures


def corrected(lat, factors):
    """Latencies divided by the host factor of each op."""
    return [t / f for t, f in zip(lat, factors)]


def _quantile_ms(values, k):
    """The k-th decile (k = 5: median, k = 9: p90) in milliseconds."""
    if len(values) == 1:
        return values[0] * 1e3
    if k == 5:
        return statistics.median(values) * 1e3
    return statistics.quantiles(values, n=10)[k - 1] * 1e3


def _by_kind(kinds, lat):
    """Latency median per kind of op."""
    groups = {}
    for kind, t in zip(kinds, lat):
        groups.setdefault(kind, []).append(t)
    return {k: {"n": len(v), "p50_ms": _quantile_ms(v, 5)}
            for k, v in sorted(groups.items())}


class Passes:
    """Runs the passes of one run and keeps what each one measured."""

    def __init__(self, workload, seed, workdir, first_ops):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.first_ops = first_ops
        self.digest = hashlib.sha256()
        self.lat, self.raw, self.kinds, self.failures = [], [], [], []
        self.host = []  # median host factor of each pass
        self.repeats = {}  # repeat key -> latency in each pass
        self.truncated = False

    def schedules(self, more):
        """Yield (pass number, ops): pass 0, then pass p for as long as
        ``more(p)`` holds."""
        p = 0
        while p == 0 or more(p):
            ops = self.first_ops if p == 0 else build(
                self.workload, self.seed, p, self.workdir)
            yield p, ops
            p += 1

    def record(self, ops, raw, factors, failures):
        lat = corrected(raw, factors)
        self.lat.append(lat)
        self.raw.append(raw)
        self.host.append(statistics.median(factors))
        self.kinds += [op.kind for op in ops]
        self.failures += failures
        for op, t in zip(ops, lat):
            if op.repeat is not None:
                self.repeats.setdefault(op.repeat, []).append(t)

    def repeat_ratio(self):
        """Median over the repeated requests of (median latency in passes
        after the first / latency in pass 0), or None without repeats."""
        ratios = [statistics.median(ts[1:]) / ts[0]
                  for ts in self.repeats.values() if len(ts) > 1 and ts[0] > 0]
        return statistics.median(ratios) if ratios else None

    def results(self):
        def figures(lat):
            return {"ops_per_s": len(lat) / sum(lat), "op_p50_ms": _quantile_ms(lat, 5),
                    "op_p90_ms": _quantile_ms(lat, 9)}

        ratio = self.repeat_ratio()
        if ratio is not None and ratio < REPEAT_RATIO_MIN:
            self.failures.append(
                f"repeated fixture requests ran {1 / ratio:.1f}x faster after "
                "pass 0: work is shared between passes")
        pooled = [t for lat in self.lat for t in lat]
        return {
            "passes": len(self.lat),
            "truncated": self.truncated,
            "pass_s": [sum(lat) for lat in self.lat],
            "ops_per_pass": [len(lat) for lat in self.lat],
            "samples": len(pooled),
            **figures(pooled),
            "raw": figures([t for raw in self.raw for t in raw]),
            "per_pass": [figures(lat) for lat in self.lat],
            "by_kind": _by_kind(self.kinds, pooled),
            "repeat_ratio": ratio,
            "host_factor": statistics.median(self.host),
            "host_factor_per_pass": self.host,
            "host_drift": max(self.host) / min(self.host) - 1,
            "digest": self.digest.hexdigest(),
            "attempted": len(pooled),
            "failures": self.failures,
        }


def run_untraced(workload, seed, workdir, first_ops, seconds):
    """Whole passes while at least half a pass's time of ``seconds`` is
    left, judged by the mean wall time of the passes so far."""
    run = Passes(workload, seed, workdir, first_ops)
    start = time.perf_counter()

    def more(done):
        elapsed = time.perf_counter() - start
        return elapsed + elapsed / done / 2 < seconds

    for p, ops in run.schedules(more):
        run.record(ops, *run_pass(ops, p, run.digest if p == 0 else None))
    return run.results()


def run_traced(workload, seed, workdir, first_ops, passes, spans_path):
    """Each pass's schedule runs untraced, then traced.  The untraced runs
    give the per-subcommand latencies and the baseline of the tracing
    overhead; the engine is unwrapped while they run."""
    run = Passes(workload, seed, workdir, first_ops)
    tracer = Tracer()
    traced_s, failures = [], []
    start = time.perf_counter()

    def more(done):
        if done == passes:
            return False
        run.truncated = time.perf_counter() - start > TRACE_CAP_S
        return not run.truncated

    for p, ops in run.schedules(more):
        run.record(ops, *run_pass(ops, p, run.digest if p == 0 else None))
        tracer.install()
        try:
            lat, factors, fails = run_pass(ops, p, None, tracer)
        finally:
            tracer.uninstall()
        traced_s.append(sum(corrected(lat, factors)))
        failures += fails
    res = run.results()
    metrics = tracer.layer_metrics(res["passes"])
    for sub in SUBCOMMANDS:
        metrics[f"cli.{sub}.p50_ms"] = (
            res["by_kind"].get(sub, {}).get("p50_ms", 0.0), "ms")
    overhead = statistics.median(t / u for t, u in zip(traced_s, res["pass_s"])) - 1
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    tracer.write_spans(spans_path)
    res.update(
        traced_pass_s=traced_s,
        spans=len(tracer.span_name),
        spans_file=str(spans_path.relative_to(ROOT)),
        layer_metrics=metrics,
        attempted=2 * res["attempted"],
        failures=res["failures"] + failures,
    )
    return res


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True, type=Path)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    first_ops = build(args.workload, args.seed, 0, args.workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        spans = args.workdir.parent / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        res = run_traced(args.workload, args.seed, args.workdir, first_ops,
                         trace_passes(args.workload, args.seconds), spans)
    else:
        res = run_untraced(args.workload, args.seed, args.workdir, first_ops,
                           args.seconds)
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
