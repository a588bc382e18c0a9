"""Checks of the benchmark itself: ``python3 perfbench/run.py --self-check``.

- The parameter-count oracle and the sample checks agree with gcec on the
  S3 d=3 sweep with non-unitary labels only, and they flag a record whose
  count or sample has been altered.
- A traced pass writes the same manifest bytes as an untraced one.
- The manifest-read inputs are the same bytes on every call for one seed,
  and gcec reads them back with no wrong or failed operation.
"""

from __future__ import annotations

import copy
import json

import run as bench


def self_check() -> int:
    loaded = bench.load_gcec()
    if loaded is None:
        return 2
    pipeline, _ = loaded
    from manifests import make_inputs
    from spans import Tracer

    results = []

    def expect(what: str, ok: bool) -> None:
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {what}")

    sweep = bench.SweepWorkload("self-check", pipeline, [("S3", 3, True)], 0)
    tally = bench.Tally()
    sweep.run_pass()
    sweep.check(tally)
    expect(
        f"oracle agrees on S3 d=3*: {tally.attempted} instances, {tally.failed} failed",
        tally.attempted == 36 and tally.failed == 0 and not tally.unsound,
    )

    with Tracer(pipeline) as tracer:
        sweep.run_pass(tracer)
    before = len(tally.unsound)
    sweep.check(tally)
    expect(
        f"traced manifest is byte-identical ({len(tracer.spans)} spans)",
        len(tally.unsound) == before and len(tracer.spans) > 0,
    )

    oracle = sweep.oracles[0]
    obj = json.loads(sweep.paths[0].read_bytes())
    found = next(r for r in obj["records"] if r["status"] == "channel_found" and r["d1_label"] != r["d2_label"])
    altered = dict(found, n_params=found["n_params"] + 1)
    wrong, unsound = bench.record_problems(oracle, altered)
    expect("oracle flags an altered n_params as wrong", wrong is not None and unsound is None)
    bent = copy.deepcopy(found)
    bent["kraus_samples"][0]["kraus"][0][0][0][0] += 1e-3
    expect("sample check flags a perturbed Kraus operator", bench.record_problems(oracle, bent)[1] is not None)

    first = [m.data for m in make_inputs(0)]
    expect("manifest-read inputs repeat for one seed", first == [m.data for m in make_inputs(0)])
    read = bench.ReadWorkload("self-check", pipeline, 0)
    read.setup()
    tally = bench.Tally()
    read.run_pass()
    read.check(tally)
    with Tracer(pipeline) as tracer:
        read.run_pass(tracer)
    read.check(tally)
    expect(
        f"manifest-read round-trips, traced and untraced: {tally.attempted} operations, {tally.failed} failed",
        tally.failed == 0 and not tally.unsound,
    )
    print("self-check " + ("passed" if all(results) else "FAILED"))
    return 0 if all(results) else 1
