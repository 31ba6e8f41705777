"""The benchmark's seed-1 output digests, checked in the test suite.

Pass 0 of each workload in ``bench/`` is built at seed 1 and run once; the
sha256 over the rendered output of every op must equal the digest the
engine has produced since the benchmark was written, and no op may fail.
A change to any engine output the benchmark renders fails here, not only
in a benchmark run.

The same pass pins the validated boundary on real traffic: the engine
builds every value it computes with a trusted ``_of``, so over the ops and
their checks neither ``gralg._check_key`` nor the validating ``__init__``
of ``GradedPoly``, ``DiffOp`` or ``DensityElement`` runs.  ``worker.build``
makes the inputs through those public constructors, so it stays outside
the count.  Bracket data is validated where it enters, by the ``.sd`` reader
and the command-line flags; the data the engine reads off a pencil is built
by the trusted ``VBracketData._of``, so two workloads construct none."""

import hashlib
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402
from superdelta import DensityElement, DiffOp, GradedPoly, VBracketData, gralg  # noqa: E402

DIGESTS = {
    "derived-brackets":
        "15d60cc8cf316b8b9aebfa1b7e38321ceae9eaa837d4665edb24eadbab6bbb34",
    "density-geometry":
        "981e9789f2234ff88baf844b4505fd1b97fee8958b2d50bd0c5a0acece14423f",
    "cli-session":
        "1ed75066cc71a8267a975af7959cb60ddafb3f80b198c9a8b307b9a0d721b9be",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_seed_1_pass_0_digest(workload, tmp_path, count_calls):
    ops = worker.build(workload, 1, 0, tmp_path)
    checks = {"_check_key": count_calls(gralg, "_check_key")}
    for cls in (GradedPoly, DiffOp, DensityElement):
        checks[f"{cls.__name__}.__init__"] = count_calls(cls, "__init__")
    data = count_calls(VBracketData, "__new__")
    digest = hashlib.sha256()
    _, _, failures = worker.run_pass(ops, 0, digest)
    assert failures == []
    assert digest.hexdigest() == DIGESTS[workload]
    assert {name: len(calls) for name, calls in checks.items() if calls} == {}
    assert workload == "cli-session" or data == []
