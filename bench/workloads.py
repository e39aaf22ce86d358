"""The four workloads: inputs, the timed job, and the exact output checks.

Each workload is a fixed job of operations (a criterion, a complex or a
request).  ``prepare`` builds the inputs before the clock starts, ``run``
is the timed part and calls only public ``seqop`` functions, and ``check``
compares every output afterwards.

- ``verify``: one ``acceptance.run_all`` call over A1-A9; each detail
  string must equal the committed one.
- ``homology-full``: ``seqop homology --arity 4 --max-degree 6``, the full
  word complex, which must have the homology of a point.
- ``homology-stages``: two complexity filtration stages, whose Betti numbers
  must be the Poincare polynomial of the configuration space F(R^n, k),
  prod_{j<k} (1 + j t^(n-1)).
- ``cochain-ops``: a seeded closed-loop stream of in-process CLI requests
  (see ``cochain_ops.py``): one set of ``ROUND_LENGTH`` requests, sent in
  rounds, each round in its own seeded order, ``REQUESTS_PER_SECOND``
  requests per second of ``--seconds`` in all.  Every request is timed in
  every round, so its latency can be taken as its median over the rounds,
  which a stall of the host during one round does not move.

The batch jobs run once: one round, in the given order.

``toy=True`` shrinks every job to arity-3 complexes, two criteria and a
few dozen requests (every malformed one among them) in three rounds, for
the harness self-check.

Regenerate the committed expectations with::

    PYTHONPATH=src python3 bench/workloads.py --write-expected
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import time

import cochain_ops

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

CRITERIA = tuple(f"A{i}" for i in range(1, 10))
TOY_CRITERIA = ("A5", "A7")
# cochain-ops requests per second of --seconds: a run-length setting (about
# 16-20 s of requests at --seconds 20 on a 2-core x86 host), not a traffic rate
REQUESTS_PER_SECOND = 300
# requests in one round: enough that 12 samples lie beyond the p99
ROUND_LENGTH = 1200
TOY_STREAM_LENGTH = 40
TOY_ROUNDS = 3

HOMOLOGY_JOBS = {
    "homology-full": [(4, 6, None)],
    "homology-stages": [(5, 5, 2), (4, 6, 4)],
}
TOY_HOMOLOGY_JOBS = {
    "homology-full": [(3, 4, None)],
    "homology-stages": [(3, 4, 2), (3, 4, 3)],
}


def _homology_argv(arity, top, stage):
    argv = ["homology", "--arity", str(arity), "--max-degree", str(top)]
    if stage is not None:
        argv += ["--max-complexity", str(stage)]
    return argv


def _load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def prepare(workload: str, seed: int, seconds: float, toy: bool):
    """The job's operations as (label, payload) pairs, and the order of each
    round as a list of operation indices; no seqop calls."""
    if workload == "verify":
        ops = [(name, name) for name in (TOY_CRITERIA if toy else CRITERIA)]
        return ops, [list(range(len(ops)))]
    if workload in HOMOLOGY_JOBS:
        jobs = (TOY_HOMOLOGY_JOBS if toy else HOMOLOGY_JOBS)[workload]
        ops = [(" ".join(_homology_argv(*job)), job) for job in jobs]
        return ops, [list(range(len(ops)))]
    if workload == "cochain-ops":
        entries = cochain_ops.catalog()
        indices = cochain_ops.stream(seed, TOY_STREAM_LENGTH if toy else ROUND_LENGTH)
        if toy:  # cover the miss path
            indices += [i for i, entry in enumerate(entries) if entry[0] == "malformed"]
        ops = [(f"#{i} {entries[i][1][0]}", entries[i]) for i in indices]
        rounds = TOY_ROUNDS if toy else max(1, round(REQUESTS_PER_SECOND * seconds / ROUND_LENGTH))
        rng = random.Random(f"rounds-{seed}")
        orders = [list(range(len(ops)))] + [rng.sample(range(len(ops)), len(ops)) for _ in range(rounds - 1)]
        return ops, orders
    raise ValueError(f"unknown workload {workload!r}")


def run(workload: str, ops) -> tuple[list, list]:
    """The timed job: returns (one output per operation, seconds per request).

    The job's wall time is the sum of the request times, so the harness's
    own work between requests is not in it.

    A request is one call a user would make: ``seqop verify`` runs all its
    criteria in one ``acceptance.run_all`` call, every other operation is
    its own ``cli.main`` call.
    """
    from seqop import acceptance, cli

    perf = time.perf_counter
    if workload == "verify":
        t = perf()
        outputs = acceptance.run_all([name for name, _ in ops])
        return outputs, [perf() - t]
    homology_job = workload in HOMOLOGY_JOBS
    outputs, seconds = [], []
    for _, job in ops:
        argv = _homology_argv(*job) if homology_job else job[1]
        t = perf()
        code, stdout, stderr = cochain_ops.call(cli.main, argv)
        seconds.append(perf() - t)
        if not homology_job:  # keep a digest, not the output, so memory stays flat
            stdout = hashlib.sha256(stdout.encode()).hexdigest()
        outputs.append((code, stdout, stderr))
    return outputs, seconds


def run_rounds(workload: str, ops, orders) -> tuple[list, list]:
    """The timed job, round by round: (outputs of each round, in its order;
    seconds of each round, by request).

    Where each operation is its own request, a round's request seconds are
    put back in operation order, so that ``seconds[r][i]`` is request ``i``
    in round ``r``.
    """
    outputs, seconds = [], []
    for order in orders:
        out, sec = run(workload, [ops[i] for i in order])
        if len(sec) == len(order):
            sec = [s for _, s in sorted(zip(order, sec))]
        outputs.append(out)
        seconds.append(sec)
    return outputs, seconds


def _poincare(arity: int, stage: int | None, degrees: int) -> list[int]:
    """Betti numbers of F(R^stage, arity), or of a point when stage is None."""
    poly = [1] + [0] * degrees
    if stage is None:
        return poly
    for j in range(1, arity):
        shifted = [0] * (stage - 1) + [j * c for c in poly]
        poly = [a + b for a, b in zip(poly, shifted + [0] * len(poly))]
    return poly[:degrees + 1]


def _check_homology(job, output, expected_dims) -> str | None:
    arity, top, stage = job
    code, stdout, stderr = output
    if code != 0:
        return f"exit {code!r}: {stderr.strip()[-200:]}"
    report = json.loads(stdout)
    if report["dims"] != expected_dims:
        return f"dims {report['dims']} != committed {expected_dims}"
    want = _poincare(arity, stage, top - 1)
    got = [(report["homology"][str(q)]["rank"], report["homology"][str(q)]["torsion"]) for q in range(top)]
    if got != [(w, []) for w in want]:
        return f"(rank, torsion) by degree {got}, expected ranks {want} without torsion"
    if not report["homology"][str(top)].get("truncated"):
        return f"top degree {top} is not flagged truncated"
    return None


def _check_request(entry, output, golden) -> str | None:
    category, argv, want, _ = entry
    code, stdout, stderr = output  # stdout is its sha256 here
    if code != want:
        return f"exit {code!r}, expected {want}"
    if "Traceback" in stderr:
        return "traceback on stderr"
    expected = cochain_ops.EMPTY_SHA if category == "malformed" else golden.get(cochain_ops.key(argv))
    if expected is None:
        return "no committed digest"
    if stdout != expected:
        return f"stdout sha256 {stdout[:12]} != committed {expected[:12]}"
    return None


def check(workload: str, ops, outputs) -> list[tuple[str, bool, str]]:
    """Every miss as (label, known defect, message), in operation order."""
    expected = _load_expected()
    misses = []
    for (label, payload), output in zip(ops, outputs):
        known_defect = False
        if workload == "verify":
            want = expected["verify"][payload]
            if not output.passed:
                message = f"failed: {output.detail}"
            elif output.detail != want:
                message = f"detail {output.detail!r} != committed {want!r}"
            else:
                message = None
        elif workload in HOMOLOGY_JOBS:
            message = _check_homology(payload, output, expected["dims"][label])
        else:
            known_defect = payload[3]
            message = _check_request(payload, output, expected["cochain"])
        if message is not None:
            misses.append((label, known_defect, message))
    return misses


def write_expected():
    from seqop import acceptance, cli
    from seqop.combinatorics import enumerate_basis

    golden = cochain_ops.digests(cli.main)
    dims = {}
    for jobs in list(HOMOLOGY_JOBS.values()) + list(TOY_HOMOLOGY_JOBS.values()):
        for arity, top, stage in jobs:
            label = " ".join(_homology_argv(arity, top, stage))
            dims[label] = {str(d): len(enumerate_basis(arity, d, stage)) for d in range(top + 1)}
    details = {}
    for result in acceptance.run_all():
        if not result.passed:
            raise SystemExit(f"{result.name} fails: {result.detail}")
        details[result.name] = result.detail
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump({"verify": details, "dims": dims, "cochain": golden}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {EXPECTED_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--write-expected"]:
        write_expected()
    else:
        raise SystemExit(__doc__)
