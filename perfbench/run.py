"""Sweep benchmark for gcec, driven through the public library API.

    python3 perfbench/run.py --workload finite-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Run from any directory; the package is imported from ``src/`` next to this
directory.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics.
The last line of standard output is one JSON object.  README.md in this
directory explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

# One BLAS thread: the machine this was tuned on has two cores shared with
# other work, and one thread gave the steadier pass times.
BLAS_THREADS = 1
SETUP_REPEATS = 3
MIN_PASSES = 2
SHOWN_DEFECTS = 8

SWEEPS = {
    "lie-sweep": [("SO3", 7, False), ("SU2", 5, False)],
    "finite-sweep": [
        ("Z2", 2, False),
        ("Z3", 1, False),
        ("S3", 5, True),
        ("A4", 4, True),
        ("D5", 4, True),
        ("Z4", 3, False),
    ],
}
WORKLOADS = (*SWEEPS, "manifest-read")


class Tally:
    """Operations attempted and what went wrong with them.

    ``unsound`` collects outputs that are invalid (a sample that is not a
    covariant channel, bytes that change between passes, a read that does
    not round-trip); any entry makes the run incorrect.  Wrong parameter
    counts and caught crashes are defects of the program under test: they
    count as failed operations and move the fractions, but the outputs that
    were emitted are still valid.
    """

    def __init__(self):
        self.attempted = self.errors = self.undecided = self.wrong = self.failed = 0
        self.unsound: list[str] = []
        self.defects: dict[str, str] = {}

    def op(self, *, error=None, wrong=None, undecided=False, unsound=None, where=""):
        self.attempted += 1
        self.errors += error is not None
        self.wrong += wrong is not None
        self.undecided += undecided
        self.failed += error is not None or wrong is not None
        for why in (error, wrong):
            if why is not None:
                self.defects.setdefault(where, why)
        if unsound is not None:
            self.unsound.append(f"{where}: {unsound}")

    def frac(self, count: int) -> float:
        return count / self.attempted if self.attempted else 0.0


class SweepWorkload:
    """Full sweeps through ``run_enumeration``, each saved with ``save_manifest``."""

    def __init__(self, name: str, pipeline, sweeps, seed: int):
        self.name, self.pipeline, self.sweeps, self.seed = name, pipeline, sweeps, seed
        self.paths = [WORK / f"{g}-d{d}.json" for g, d, _ in sweeps]
        self.digests: list[str] | None = None
        self.oracles = None

    def setup(self) -> None:
        from gcec.groups import infer_kind, props
        from gcec.reps import enumerate_reps, omega_candidates

        for g, d, _ in self.sweeps:
            spec = props(g, infer_kind(g), d).group
            enumerate_reps(spec, d)
            omega_candidates(spec, d)

    def run_pass(self, tracer=None) -> None:
        for (g, d, nonunitary_only), path in zip(self.sweeps, self.paths):
            manifest = self.pipeline.run_enumeration(g, None, d, seed=self.seed, nonunitary_only=nonunitary_only)
            self.pipeline.save_manifest(manifest, path)

    def check(self, tally: Tally) -> None:
        from gcec.groups import infer_kind
        from oracle import SweepOracle

        if self.oracles is None:
            self.oracles = [SweepOracle(g, infer_kind(g), d, nu) for g, d, nu in self.sweeps]
        data = [p.read_bytes() for p in self.paths]
        digests = [hashlib.sha256(b).hexdigest() for b in data]
        if self.digests is None:
            self.digests = digests
        for (g, d, _), raw, digest, first, oracle in zip(self.sweeps, data, digests, self.digests, self.oracles):
            obj = json.loads(raw)
            changed = digest != first
            seen = set()
            for rec in obj["records"]:
                key = (rec["d1_label"], rec["d2_label"], rec["omega_index"])
                where = f"{g} d={d} {key[0]} -> {key[1]} omega={rec['omega_label']}"
                if key in seen:
                    wrong = unsound = "repeated instance"
                else:
                    wrong, unsound = record_problems(oracle, rec)
                seen.add(key)
                if changed:
                    unsound = wrong = "manifest bytes differ between passes"
                tally.op(
                    error=rec["error"],
                    wrong=wrong,
                    undecided=rec["status"] == "solver_failed" and rec["error"] is None,
                    unsound=unsound,
                    where=where,
                )
            for key in sorted(set(oracle.expected) - seen):
                tally.op(wrong="missing instance", unsound="missing instance", where=f"{g} d={d} {key}")

    def input_digest(self) -> str:
        return hashlib.sha256(repr((self.sweeps, self.seed)).encode()).hexdigest()


def record_problems(oracle, rec: dict) -> tuple[str | None, str | None]:
    """(why the record is wrong, why it is invalid) against the oracle."""
    key = (rec["d1_label"], rec["d2_label"], rec["omega_index"])
    if key not in oracle.expected:
        return "unexpected instance", "unexpected instance"
    if rec["status"] == "channel_found" and not rec["kraus_samples"]:
        return "channel_found without samples", "channel_found without samples"
    for sample in rec["kraus_samples"]:
        bad = oracle.sample_defects(rec, sample)
        if bad:
            why = "invalid sample: " + "; ".join(bad)
            return why, why
    if rec["n_params"] != oracle.expected[key]:
        return f"n_params {rec['n_params']}, oracle {oracle.expected[key]}", None
    return None, None


class ReadWorkload:
    """``load_manifest``, ``classify_file`` and ``report`` over stored manifests."""

    def __init__(self, name: str, pipeline, seed: int):
        self.name, self.pipeline, self.seed = name, pipeline, seed
        self.inputs = []
        self.outputs: list = []
        self.digests: list[str] | None = None

    def setup(self) -> None:
        from manifests import make_inputs

        self.inputs = make_inputs(self.seed)
        for m in self.inputs:
            (WORK / f"read-{m.name}.json").write_bytes(m.data)

    def run_pass(self, tracer=None) -> None:
        self.outputs = []
        for m in self.inputs:
            path = WORK / f"read-{m.name}.json"
            if tracer is not None:
                tracer.instance = m.name
            loaded = self.pipeline.load_manifest(path)
            entries = self.pipeline.classify_file(path)
            text = self.pipeline.report(loaded, "text")
            self.outputs.append((loaded, entries, text))
        if tracer is not None:
            tracer.instance = None

    def check(self, tally: Tally) -> None:
        digests = []
        for m, (loaded, entries, text) in zip(self.inputs, self.outputs):
            digests.append(hashlib.sha256(json.dumps(entries, sort_keys=True).encode() + text.encode()).hexdigest())
            tally.op(**_load_problem(m, loaded), where=f"load {m.name}")
            expected = [
                (f"records[{i}].kraus_samples[{j}]", s)
                for i, r in enumerate(m.records)
                for j, s in enumerate(r.samples)
            ]
            if len(entries) != len(expected):
                tally.op(wrong="entry count", unsound=f"{len(entries)} entries, expected {len(expected)}", where=f"classify {m.name}")
            for entry, (tag, s) in zip(entries, expected):
                K, d = s.matrices.shape[:2]
                wrong = None
                if entry.get("source") != tag or entry.get("d") != d or entry.get("K") != K:
                    wrong = f"entry {entry.get('source')} does not describe {tag}"
                elif entry["error"] is None and (
                    entry["classification"] != s.classification
                    or entry["rank"] != s.rank
                    or entry["expected_rank"] != K * K
                    or entry["choi_min_eigenvalue"] < -1e-10
                    or entry["tp_residual"] > 1e-9
                ):
                    wrong = (
                        f"{entry['classification']} rank {entry['rank']}, "
                        f"expected {s.classification} rank {s.rank}"
                    )
                tally.op(error=entry["error"], wrong=wrong, unsound=wrong, where=f"classify {m.name} {tag}")
            rows = text.splitlines()
            ok = len(rows) == 4 + len(m.records) and rows[0].startswith(f"group {m.group} ({m.kind}), d={m.d}")
            ok = ok and all(
                row.split()[:2] == [r.d1_label, r.d2_label] and r.status in row.split()
                for row, r in zip(rows[4:], m.records)
            )
            problem = None if ok else "report rows do not match the records"
            tally.op(wrong=problem, unsound=problem, where=f"report {m.name}")
        if self.digests is None:
            self.digests = digests
        if digests != self.digests:
            tally.op(wrong="outputs differ between passes", unsound="outputs differ between passes", where="manifest-read")

    def input_digest(self) -> str:
        return hashlib.sha256(b"".join(m.data for m in self.inputs)).hexdigest()


def _load_problem(m, loaded) -> dict:
    """Compare a loaded manifest with what was stored."""
    import numpy as np

    head = (loaded.group, loaded.kind, loaded.d, loaded.total_instances, len(loaded.records))
    if head != (m.group, m.kind, m.d, len(m.records), len(m.records)):
        why = f"header {head}"
        return {"wrong": why, "unsound": why}
    for i, (got, r) in enumerate(zip(loaded.records, m.records)):
        fields = (
            got.d1_label.text, got.d1_label.parts, got.d2_label.text, got.d2_label.parts,
            got.omega_index, got.n_params, got.status, got.classification, got.error,
        )
        want = (
            r.d1_label, r.d1_parts, r.d2_label, r.d2_parts,
            r.omega_index, r.n_params, r.status, r.classification, None,
        )
        same = fields == want and len(got.kraus_samples) == len(r.samples)
        same = same and all(
            np.array_equal(np.array(g.matrices), s.matrices) for g, s in zip(got.kraus_samples, r.samples)
        )
        if not same:
            why = f"record {i} does not round-trip"
            return {"wrong": why, "unsound": why}
    return {}


def blas_pools() -> dict[str, int]:
    """Thread-pool size of every OpenBLAS library loaded in this process."""
    names = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.rsplit("/", 1)[-1]})
    pools = {}
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                pools[Path(lib).name] = fn()
                break
    return pools


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def measure(workload, seconds: float, trace: bool, tally: Tally, pipeline):
    """Passes for about ``seconds`` (at least MIN_PASSES, or one
    untraced/traced pair).  Returns (untraced pass times, traced pass
    times, per-layer metrics and self times of each traced pass, instance
    times of the traced passes, tracer)."""
    from spans import Tracer, instance_times, pass_metrics, self_times

    plain, traced, layers, instances, own = [], [], [], [], []
    tracer = Tracer(pipeline) if trace else None
    pass_of: list[int] = []
    start = time.perf_counter()

    def one(with_trace: bool) -> None:
        first = len(tracer.spans) if with_trace else 0
        t0 = time.perf_counter()
        if with_trace:
            with tracer:
                workload.run_pass(tracer)
        else:
            workload.run_pass()
        elapsed = time.perf_counter() - t0
        if with_trace:
            traced.append(elapsed)
            layers.append(pass_metrics(tracer.spans[first:], first))
            own.append(self_times(tracer.spans[first:], first))
            instances.extend(instance_times(tracer.spans[first:]))
            pass_of.extend([len(traced) - 1] * (len(tracer.spans) - first))
        else:
            plain.append(elapsed)
        workload.check(tally)

    while True:
        if trace:
            # Alternate which side of a pair runs first.
            for with_trace in (False, True) if len(traced) % 2 == 0 else (True, False):
                one(with_trace)
            step, enough = _median(plain) + _median(traced), True
        else:
            one(False)
            step, enough = _median(plain), len(plain) >= MIN_PASSES
        if enough and time.perf_counter() - start + step > seconds:
            break
    if trace:
        tracer.write(WORK / f"trace-{workload.name}-s{workload.seed}.jsonl", pass_of)
    return plain, traced, layers, own, instances, tracer


def load_gcec():
    """Import gcec from ``src/`` beside this directory with the BLAS pool
    pinned.  Returns (gcec.pipeline, import seconds), or None with a message
    on standard error when the source is missing."""
    if not (ROOT / "src" / "gcec" / "__init__.py").is_file():
        print(f"error: no gcec source at {ROOT / 'src' / 'gcec'}", file=sys.stderr)
        return None
    # The pool size is read when numpy loads, so pin it before any import.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    import gcec.pipeline as pipeline

    import_s = time.perf_counter() - t0
    if not Path(pipeline.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported gcec from {pipeline.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return None
    WORK.mkdir(exist_ok=True)
    return pipeline, import_s


def make_workload(name: str, pipeline, seed: int):
    if name in SWEEPS:
        return SweepWorkload(name, pipeline, SWEEPS[name], seed)
    return ReadWorkload(name, pipeline, seed)


def run(args) -> int:
    loaded = load_gcec()
    if loaded is None:
        return 2
    pipeline, import_s = loaded
    import numpy
    import scipy

    workload = make_workload(args.workload, pipeline, args.seed)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + _median(setup_times)

    nproc = len(os.sched_getaffinity(0))
    pools = blas_pools()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"nproc {nproc}  numpy {numpy.__version__}  scipy {scipy.__version__}  python {sys.version.split()[0]}")
    print("blas pools " + " ".join(f"{k}={v}" for k, v in pools.items()))
    if any(v > nproc for v in pools.values()):
        print(f"warning: a BLAS pool exceeds nproc={nproc}")
    print(f"inputs sha256 {workload.input_digest()}")

    tally = Tally()
    plain, traced, layers, own, inst, tracer = measure(workload, args.seconds, bool(args.trace), tally, pipeline)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"passes untraced {len(plain)} traced {len(traced)}  pass_s " + " ".join(f"{t:.4f}" for t in plain))
    print(
        f"operations {tally.attempted}  failed {tally.failed}  wrong_frac {tally.frac(tally.wrong):.6f}  "
        f"error_frac {tally.frac(tally.errors):.6f}  undecided_frac {tally.frac(tally.undecided):.6f}"
    )
    for where, why in list(tally.defects.items())[:SHOWN_DEFECTS]:
        print(f"defect {where}: {why}")
    if len(tally.defects) > SHOWN_DEFECTS:
        print(f"defect ... {len(tally.defects) - SHOWN_DEFECTS} more distinct")
    for line in tally.unsound[:SHOWN_DEFECTS]:
        print(f"INCORRECT {line}")

    if args.trace:
        from spans import tail

        metrics = {k: (_median([m[k] for m in layers]), unit_of(k)) for k in layers[0]}
        pct, worst = tail(inst)
        metrics.update(
            {
                "trace.overhead_s": (_median(traced) - _median(plain), "s"),
                "trace.absent_layers": (len(tracer.absent), "count"),
                "pipeline.instances": (len(inst), "count"),
                "pipeline.instance_ms_p50": (1e3 * _median(inst), "ms"),
                "pipeline.instance_ms_tail": (1e3 * worst, "ms"),
                "pipeline.instance_tail_pct": (pct, "%"),
                "checks.wrong_frac": (tally.frac(tally.wrong), "frac"),
                "checks.error_frac": (tally.frac(tally.errors), "frac"),
                "checks.undecided_frac": (tally.frac(tally.undecided), "frac"),
            }
        )
        for name in sorted(own[0], key=lambda n: -own[0][n]):
            print(f"self {name} {_median([o.get(name, 0.0) for o in own]):.6f} s")
        if tracer.absent:
            print("absent layers " + " ".join(tracer.absent))
    else:
        metrics = {
            "pass_s": (_median(plain), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "oracle_ok_frac": (1.0 - tally.frac(tally.wrong), "frac"),
            "error_free_frac": (1.0 - tally.frac(tally.errors), "frac"),
            "decided_frac": (1.0 - tally.frac(tally.undecided), "frac"),
        }
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    result = {
        "correct": not tally.unsound,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s") or ".sweep_s." in name:
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="check the oracle and the tracer, then exit")
    args = parser.parse_args(argv)
    if args.self_check:
        from selfcheck import self_check

        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
