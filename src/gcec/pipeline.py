"""End-to-end enumeration pipeline with JSON persistence and reports.

One *instance* is a triple (D1, D2, Omega): input/output representations of
equal dimension plus a channel-labeling irrep.  The sweep walks instances
in deterministic order (Omega outermost in catalog order, then D1, then D2
in enumeration order), builds the covariance kernel, imposes trace
preservation, classifies the outcome, and collects everything into a
manifest whose JSON form is byte-identical across runs with equal inputs
and an equal BLAS thread count (a multithreaded BLAS rounds its reductions
differently, which reaches the stored digits of Lie-group sweeps).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    KRAUS_SCHEMA_VERSION,
    KrausSet,
    choi,
    kraus_from_dict,
    kraus_to_dict,
)
from .errors import GcecError, SchemaError, NotTracePreserving, UnknownGroup
from .extremality import DEFAULT_TOL_RANK, test_extreme
from .groups import infer_kind, props
from .kernels import (
    DEFAULT_TOL_KERNEL,
    build_discrete_system,
    build_lie_system,
    covariance_residual,
    joint_nullspace,
)
from .reps import RepLabel, enumerate_reps, materialize, omega_candidates
from .tp import DEFAULT_TOL_TP, solve_tp

MANIFEST_SCHEMA_VERSION = 1
DEFAULT_TIME_BUDGET = 10.0


@dataclass
class ChannelRecord:
    group: str
    d: int
    d1_label: RepLabel
    d2_label: RepLabel
    omega_index: int
    omega_label: str
    n_params: int
    status: str  # no_cp_map | no_tp_solution | solver_failed | error | channel_found
    kraus_samples: list[KrausSet] = field(default_factory=list)
    moduli_constraints: list[str] = field(default_factory=list)
    classification: str = "not_applicable"
    residuals: dict = field(default_factory=dict)
    error: str | None = None


@dataclass
class RunManifest:
    group: str
    kind: str
    d: int
    tolerances: dict
    seed: int
    options: dict
    total_instances: int
    count_found: int
    records: list[ChannelRecord] = field(default_factory=list)


def _labels_by_text(spec, d: int) -> dict[str, RepLabel]:
    """Display text -> label of every d-dimensional representation, in
    enumeration order."""
    return {lab.text: lab for lab in enumerate_reps(spec, d)}


def run_enumeration(
    group: str,
    kind: str | None,
    d: int,
    *,
    tol_kernel: float = DEFAULT_TOL_KERNEL,
    tol_tp: float = DEFAULT_TOL_TP,
    tol_rank: float = DEFAULT_TOL_RANK,
    n_starts: int = 64,
    seed: int = 0,
    nonunitary_only: bool = False,
    reps: list[str] | None = None,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> RunManifest:
    """Construct and classify every covariant channel family for the group.

    ``reps`` optionally restricts the sweep to representations with the
    given display texts (a sub-sweep; totals then count the restriction).
    ``nonunitary_only`` drops 1-dimensional channel labels, whose channels
    are plain unitaries.  ``time_budget`` bounds each instance's nonlinear
    TP fallback: once that many seconds have passed since the instance
    began, no new random start is issued.  The status is then
    ``solver_failed`` only if no earlier start converged.
    """
    if kind is None:
        kind = infer_kind(group)
    payload = props(group, kind, d)
    spec = payload.group
    by_text = _labels_by_text(spec, d)
    labels = list(by_text.values())
    if reps is not None:
        missing = [t for t in reps if t not in by_text]
        if missing:
            raise UnknownGroup(
                f"no {group} representation(s) labelled {missing} at d={d}; "
                f"available: {sorted(by_text)}"
            )
        labels = sorted((by_text[t] for t in reps), key=lambda lab: lab.parts)
    omegas = omega_candidates(spec, d)
    if nonunitary_only:
        omegas = [om for om in omegas if om.dim >= 2]

    rep_cache = {lab.parts: materialize(spec, lab) for lab in labels}
    block_cache: dict = {}  # Schur-block kernels shared by this sweep's instances

    records: list[ChannelRecord] = []
    for omega in omegas:
        for lab1 in labels:
            for lab2 in labels:
                # Seed keyed by the instance labels (not the loop position):
                # a filtered sub-sweep then reproduces the full sweep's
                # records for the instances it shares.
                instance_seed = [seed, omega.index, *lab1.parts, 0xFFFFFFFF, *lab2.parts]
                records.append(
                    _solve_instance(
                        group,
                        kind,
                        d,
                        rep_cache[lab1.parts],
                        rep_cache[lab2.parts],
                        omega,
                        tol_kernel=tol_kernel,
                        tol_tp=tol_tp,
                        tol_rank=tol_rank,
                        n_starts=n_starts,
                        seed=instance_seed,
                        time_budget=time_budget,
                        block_cache=block_cache,
                    )
                )

    return RunManifest(
        group=group,
        kind=kind,
        d=d,
        tolerances={"kernel": tol_kernel, "tp": tol_tp, "rank": tol_rank},
        seed=seed,
        options={
            "n_starts": n_starts,
            "nonunitary_only": nonunitary_only,
            "reps": None if reps is None else [lab.text for lab in labels],
            "time_budget": time_budget,
        },
        total_instances=len(records),
        count_found=sum(1 for r in records if r.status == "channel_found"),
        records=records,
    )


def _solve_instance(
    group,
    kind,
    d,
    rep1,
    rep2,
    omega,
    *,
    tol_kernel,
    tol_tp,
    tol_rank,
    n_starts,
    seed,
    time_budget,
    block_cache,
):
    started = time.perf_counter()
    record = ChannelRecord(
        group=group,
        d=d,
        d1_label=rep1.label,
        d2_label=rep2.label,
        omega_index=omega.index,
        omega_label=omega.label,
        n_params=0,
        status="no_cp_map",
    )
    try:
        system = build_discrete_system(rep1, rep2, omega) if kind == "discrete" else build_lie_system(rep1, rep2, omega)
        family = joint_nullspace(system, tol_kernel, cache=block_cache)
        record.n_params = family.n_params
        if family.n_params == 0:
            return record
        report = solve_tp(
            family,
            tol_tp=tol_tp,
            n_starts=n_starts,
            seed=seed,
            deadline=started + time_budget,
        )
        record.moduli_constraints = list(report.moduli_constraints)
        if report.status == "no_solution":
            record.status = "no_tp_solution"
            return record
        if report.status == "solver_failed":
            record.status = "solver_failed"
            return record
        record.status = "channel_found"
        samples = [
            KrausSet.from_matrices(family.kraus_at(c)) for c in report.solutions
        ]
        record.kraus_samples = samples
        verdicts = [test_extreme(s, tol_rank, tol_tp=max(tol_tp, 1e-8)) for s in samples]
        if omega.dim == 1:
            record.classification = "unitary"
        elif all(v.is_extreme for v in verdicts):
            record.classification = "extreme"
        else:
            record.classification = "quasi_extreme"
        record.residuals = {
            "covariance": max(
                covariance_residual(s.matrices, rep1, rep2, omega, kind)
                for s in samples
            ),
            "tp": max(report.residuals),
            "rank_sigma_min": min(v.min_singular_value for v in verdicts),
        }
    except (GcecError, np.linalg.LinAlgError) as exc:
        record.error = f"{type(exc).__name__}: {exc}"
        record.status = "solver_failed"
        record.classification = "not_applicable"
    except Exception as exc:  # a crash: record it as such, never abort the sweep
        record.error = f"{type(exc).__name__}: {exc}"
        record.status = "error"
        record.classification = "not_applicable"
    return record


# ---------------------------------------------------------------------------
# JSON persistence
# ---------------------------------------------------------------------------


def record_to_dict(record: ChannelRecord) -> dict:
    return {
        "group": record.group,
        "d": record.d,
        "d1_label": record.d1_label.text,
        "d2_label": record.d2_label.text,
        "omega_index": record.omega_index,
        "omega_label": record.omega_label,
        "n_params": record.n_params,
        "status": record.status,
        "kraus_samples": [kraus_to_dict(s) for s in record.kraus_samples],
        "moduli_constraints": list(record.moduli_constraints),
        "classification": record.classification,
        "residuals": {k: float(v) for k, v in record.residuals.items()},
        "error": record.error,
    }


def manifest_to_dict(manifest: RunManifest) -> dict:
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kraus_schema_version": KRAUS_SCHEMA_VERSION,
        "group": manifest.group,
        "kind": manifest.kind,
        "d": manifest.d,
        "tolerances": {k: float(v) for k, v in manifest.tolerances.items()},
        "seed": manifest.seed,
        "options": manifest.options,
        "total_instances": manifest.total_instances,
        "count_found": manifest.count_found,
        "records": [record_to_dict(r) for r in manifest.records],
    }


def manifest_to_json(manifest: RunManifest) -> str:
    return json.dumps(manifest_to_dict(manifest), indent=2, sort_keys=True) + "\n"


def save_manifest(manifest: RunManifest, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(manifest_to_json(manifest))


def _read_json(path):
    """Parse a JSON file; a decode failure raises ``SchemaError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from None


_RESIDUAL_KEYS = ("covariance", "rank_sigma_min", "tp")


def _residuals_from(obj) -> dict:
    """A record's residuals: empty, or exactly ``_RESIDUAL_KEYS`` mapped to
    real numbers (what :func:`report` prints)."""
    if isinstance(obj, dict) and (not obj or sorted(obj) == list(_RESIDUAL_KEYS)):
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj.values()):
            return dict(obj)
    raise SchemaError(f"residuals must be empty or map {', '.join(_RESIDUAL_KEYS)} to real numbers, got {obj!r}")


def manifest_from_dict(obj) -> RunManifest:
    if not isinstance(obj, dict) or "records" not in obj:
        raise SchemaError("not a run manifest: missing 'records'")
    if obj.get("schema_version") != MANIFEST_SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported manifest schema_version {obj.get('schema_version')!r}"
        )
    try:
        group, kind, d = obj["group"], obj["kind"], obj["d"]
        spec = props(group, kind, d).group
        by_text = _labels_by_text(spec, d)

        def label(text) -> RepLabel:
            if text not in by_text:
                raise SchemaError(f"unknown representation label {text!r} for {spec.name} d={d}")
            return by_text[text]

        records = []
        for rec in obj["records"]:
            records.append(
                ChannelRecord(
                    group=rec["group"],
                    d=rec["d"],
                    d1_label=label(rec["d1_label"]),
                    d2_label=label(rec["d2_label"]),
                    omega_index=rec["omega_index"],
                    omega_label=rec["omega_label"],
                    n_params=rec["n_params"],
                    status=rec["status"],
                    kraus_samples=[kraus_from_dict(s) for s in rec["kraus_samples"]],
                    moduli_constraints=list(rec["moduli_constraints"]),
                    classification=rec["classification"],
                    residuals=_residuals_from(rec["residuals"]),
                    error=rec.get("error"),
                )
            )
        return RunManifest(
            group=group,
            kind=kind,
            d=d,
            tolerances=dict(obj["tolerances"]),
            seed=obj["seed"],
            options=dict(obj.get("options", {})),
            total_instances=obj["total_instances"],
            count_found=obj["count_found"],
            records=records,
        )
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed manifest: {exc!r}") from None


def load_manifest(path) -> RunManifest:
    return manifest_from_dict(_read_json(path))


# ---------------------------------------------------------------------------
# standalone classification of stored Kraus sets
# ---------------------------------------------------------------------------


def _kraus_sets_in(obj) -> list[tuple[str, dict]]:
    """Collect (location-tag, kraus-dict) pairs from any supported payload."""
    if isinstance(obj, list):
        return [(f"[{i}]", item) for i, item in enumerate(obj)]
    if isinstance(obj, dict):
        if "kraus" in obj:
            return [("[0]", obj)]
        if "kraus_sets" in obj and isinstance(obj["kraus_sets"], list):
            return [(f"[{i}]", item) for i, item in enumerate(obj["kraus_sets"])]
        if "records" in obj and isinstance(obj["records"], list):
            out = []
            for i, rec in enumerate(obj["records"]):
                if not isinstance(rec, dict):
                    raise SchemaError(f"record {i} is not an object")
                for j, item in enumerate(rec.get("kraus_samples", [])):
                    out.append((f"records[{i}].kraus_samples[{j}]", item))
            return out
    raise SchemaError(
        "expected a Kraus set, a list of Kraus sets, {'kraus_sets': [...]}, "
        "or a run manifest"
    )


def classify_file(path, tol_rank: float = DEFAULT_TOL_RANK, tol_tp: float = 1e-8) -> list[dict]:
    """Validate (CP, TP) and classify every Kraus set stored in a JSON file.

    Trace-preservation failures become per-entry diagnostics rather than
    exceptions, so a clean run over a mixed file still exits 0.
    """
    results = []
    for tag, item in _kraus_sets_in(_read_json(path)):
        entry = {"source": tag, "classification": None, "error": None}
        try:
            ks = kraus_from_dict(item)
            entry.update({"d": ks.d, "K": ks.K})
            cp_floor = float(np.linalg.eigvalsh(choi(ks).matrix)[0])
            entry["choi_min_eigenvalue"] = cp_floor
            if cp_floor < -1e-10:
                raise SchemaError(f"not completely positive: min Choi eigenvalue {cp_floor:.3e}")
            entry["tp_residual"] = ks.tp_residual()
            verdict = test_extreme(ks, tol_rank, tol_tp=tol_tp)
            entry.update(
                {
                    "rank": verdict.rank,
                    "expected_rank": verdict.expected_rank,
                    "min_singular_value": verdict.min_singular_value,
                    "classification": "unitary"
                    if ks.K == 1
                    else ("extreme" if verdict.is_extreme else "quasi_extreme"),
                }
            )
        except (SchemaError, NotTracePreserving) as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
        results.append(entry)
    return results


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def report(manifest: RunManifest, format: str = "text") -> str:
    """Render a manifest as canonical JSON or a per-instance text table."""
    if format == "json":
        return manifest_to_json(manifest)
    if format != "text":
        raise SchemaError(f"unknown report format {format!r}")
    lines = [
        f"group {manifest.group} ({manifest.kind}), d={manifest.d}, seed={manifest.seed}",
        f"instances {manifest.total_instances}, channels found {manifest.count_found}",
        "",
        f"{'D1':<14} {'D2':<14} {'Omega':<6} {'params':>6} {'status':<15} {'class':<14} residuals",
    ]
    for rec in manifest.records:
        if rec.residuals:
            resid = (
                f"cov {rec.residuals['covariance']:.1e} "
                f"tp {rec.residuals['tp']:.1e} "
                f"sv {rec.residuals['rank_sigma_min']:.2e}"
            )
        else:
            resid = "-"
        if rec.error:
            resid += f"  !{rec.error}"
        lines.append(
            f"{rec.d1_label.text:<14} {rec.d2_label.text:<14} {rec.omega_label:<6} "
            f"{rec.n_params:>6} {rec.status:<15} {rec.classification:<14} {resid}"
        )
    return "\n".join(lines) + "\n"
