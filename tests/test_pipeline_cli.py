"""Full enumeration pipeline, persistence, classify-file loop, and the CLI."""

import collections
import dataclasses
import gc
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import gcec
from gcec.channels import tp_residuals
from gcec import classes as classes_module
from gcec import cli
from gcec.classes import LabelClasses
from gcec.cli import main
from gcec.errors import BadSeed, BadTolerance, SchemaError, UnknownGroup, UnknownIrrepIndex
from gcec import extremality
from gcec.groups import infer_kind, props
from gcec.kernels import build_discrete_system, build_lie_system, joint_nullspace
from gcec import pipeline
from gcec.pipeline import (
    RunManifest,
    classify_file,
    load_manifest,
    manifest_to_json,
    report,
    run_enumeration,
    save_manifest,
)
from gcec.reps import enumerate_reps, materialize, omega_candidates
from gcec.tp import TpSolveReport, solve_tp

from fixtures import (
    a4_qutrit_triple_alt_gauge,
    identity_kraus,
    kraus_dict,
    manifest_dict,
    record_dict,
    s3_qutrit_family,
)


@pytest.fixture(scope="module")
def z2_manifest():
    return run_enumeration("Z2", None, 2)


@pytest.fixture(scope="module")
def z2_restricted():
    return run_enumeration("Z2", None, 2, reps=["q0+q0", "q0+q1"])


@pytest.fixture(scope="module")
def s3_manifest():
    return run_enumeration("S3", None, 3, nonunitary_only=True)


@pytest.fixture(scope="module")
def a4_manifest():
    return run_enumeration("A4", None, 3, nonunitary_only=True)


@pytest.fixture(scope="module")
def d5_manifest():
    return run_enumeration("D5", None, 3, nonunitary_only=True)


def test_z2_full_sweep(z2_manifest):
    assert z2_manifest.total_instances == 18
    # q0+q0 -> q1+q1 with Omega = q1 counts: D2^dag A D1 = -A for every A,
    # so all four operators are covariant and every unitary is a channel.
    assert z2_manifest.count_found == 6
    assert {r.d1_label.text for r in z2_manifest.records} == {
        "q0+q0", "q0+q1", "q1+q1"
    }


def test_z2_restricted_sweep(z2_restricted):
    m = z2_restricted
    assert m.total_instances == 8 and m.count_found == 3
    statuses = collections.Counter(r.status for r in m.records)
    assert statuses == {"channel_found": 3, "no_tp_solution": 4, "no_cp_map": 1}
    for r in m.records:
        if r.status == "channel_found":
            assert r.classification == "unitary"
    blocked = [r for r in m.records if r.status == "no_cp_map"]
    assert len(blocked) == 1
    assert blocked[0].omega_label == "q1"
    assert blocked[0].d1_label.text == blocked[0].d2_label.text == "q0+q0"
    assert blocked[0].n_params == 0


def test_instance_ordering(a4_manifest):
    keys = [
        (r.omega_index, r.d1_label.parts, r.d2_label.parts)
        for r in a4_manifest.records
    ]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_s3_sweep_counts(s3_manifest):
    assert s3_manifest.total_instances == 36
    assert s3_manifest.count_found == 4
    assert all(
        r.classification == "extreme"
        for r in s3_manifest.records
        if r.status == "channel_found"
    )


def test_a4_sweep_counts(a4_manifest):
    m = a4_manifest
    assert m.total_instances == 121 and m.count_found == 12
    statuses = collections.Counter(r.status for r in m.records)
    assert statuses == {"no_cp_map": 100, "no_tp_solution": 9, "channel_found": 12}
    classes = collections.Counter(
        r.classification for r in m.records if r.status == "channel_found"
    )
    assert classes == {"extreme": 11, "quasi_extreme": 1}
    quasi = [r for r in m.records if r.classification == "quasi_extreme"]
    assert quasi[0].d1_label.text == "1+1'+1''"
    assert quasi[0].d2_label.text == "3"
    assert quasi[0].omega_label == "3"


def test_d5_sweep_counts(d5_manifest):
    assert d5_manifest.total_instances == 128
    assert d5_manifest.count_found == 16
    assert all(
        r.classification == "extreme"
        for r in d5_manifest.records
        if r.status == "channel_found"
    )


def test_restricted_sweep_reproduces_full_records(z2_manifest, z2_restricted):
    kept = {"q0+q0", "q0+q1"}
    expected = [
        r
        for r in z2_manifest.records
        if r.d1_label.text in kept and r.d2_label.text in kept
    ]
    assert len(expected) == len(z2_restricted.records)
    for full, sub in zip(expected, z2_restricted.records):
        a = json.dumps(record_dict(full, z2_manifest), sort_keys=True)
        b = json.dumps(record_dict(sub, z2_restricted), sort_keys=True)
        assert a == b


def test_repeated_rep_labels_sweep_each_once(z2_restricted):
    repeated = run_enumeration("Z2", None, 2, reps=["q0+q1", "q0+q0", "q0+q1"])
    assert repeated.options["reps"] == ["q0+q0", "q0+q1"]
    assert manifest_to_json(repeated) == manifest_to_json(z2_restricted)


def test_record_invariants(z2_manifest, a4_manifest):
    for manifest in (z2_manifest, a4_manifest):
        for r in manifest.records:
            assert r.error is None
            if r.status == "channel_found":
                assert r.kraus_samples
                assert r.classification in {"unitary", "extreme", "quasi_extreme"}
                assert r.residuals["covariance"] <= 1e-9
                assert r.residuals["tp"] <= 1e-10
                for ks in r.kraus_samples:
                    assert tp_residuals(ks.matrices[None])[0] <= 1e-9
            else:
                assert not r.kraus_samples
                assert r.classification == "not_applicable"


def test_one_dimensional_sweep_finds_every_phase_channel():
    # d=1: a channel exists exactly when conj(chi_D2) chi_D1 = chi_Omega
    m = run_enumeration("Z3", None, 1)
    assert m.total_instances == 27 and m.count_found == 9
    assert all(r.error is None for r in m.records)
    assert all(r.n_params == (r.status == "channel_found") for r in m.records)


@pytest.mark.parametrize(
    "exc,status",
    [
        (np.linalg.LinAlgError("SVD did not converge"), "solver_failed"),
        (SchemaError("bad payload"), "solver_failed"),
        (ValueError("zero-size array"), "error"),
    ],
)
def test_crash_status_is_honest(monkeypatch, exc, status):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(pipeline, "solve_tp", broken)
    m = run_enumeration("Z2", None, 2, reps=["q0+q0"])
    rec = next(r for r in m.records if r.n_params > 0)
    assert rec.status == status
    assert rec.error == f"{type(exc).__name__}: {exc}"
    assert rec.classification == "not_applicable"


def test_a_rank_test_that_raises_fails_only_its_channel_label(monkeypatch):
    # The sweep's one rank test per Omega raising (an SVD that does not
    # converge) fails the classes under that label as a failed solve would,
    # and the sweep goes on: S3's 2-dimensional label fails, its
    # 1-dimensional labels stay.
    reference = run_enumeration("S3", None, 3)
    test_extreme = pipeline.test_extreme
    failing = 2

    def broken(stack, tol_rank, spins=None):
        if stack.shape[1] == 2:
            raise np.linalg.LinAlgError("SVD did not converge")
        return test_extreme(stack, tol_rank, spins=spins)

    monkeypatch.setattr(pipeline, "test_extreme", broken)
    manifest = run_enumeration("S3", None, 3)
    failed = 0
    for r, ref in zip(manifest.records, reference.records):
        if ref.status == "channel_found" and r.omega_index == failing:
            assert r.status == "solver_failed" and r.error == "LinAlgError: SVD did not converge"
            assert not r.kraus_samples and r.classification == "not_applicable"
            failed += 1
        else:
            assert record_dict(r, manifest) == record_dict(ref, reference)
    assert 0 < failed < reference.count_found


@pytest.mark.parametrize("disagree", ["kernel_dims", "solve_tp"])
def test_table_disagreements_are_errors(monkeypatch, s3_manifest, disagree):
    # A family of another size than the table counts, or a solve without a
    # TP point where the table counts one, never becomes a status.
    if disagree == "kernel_dims":
        kernel_dims = pipeline.kernel_dims
        monkeypatch.setattr(pipeline, "kernel_dims", lambda *args: 2 * kernel_dims(*args))
    else:
        monkeypatch.setattr(pipeline, "solve_tp", lambda *args, **kwargs: TpSolveReport(status="no_solution"))
    manifest = run_enumeration("S3", None, 3, nonunitary_only=True)
    errors = [r for r in manifest.records if r.status == "error"]
    assert errors and manifest.count_found == 0
    assert all("the block table counts" in r.error and not r.kraus_samples for r in errors)
    decided = [(r.n_params, r.status) for r in manifest.records if r.status != "error"]
    if disagree == "solve_tp":  # the table's records stay as they were
        assert len(errors) == s3_manifest.count_found
        assert decided == [(r.n_params, r.status) for r in s3_manifest.records if r.status != "channel_found"]


def test_manifest_json_is_deterministic(s3_manifest):
    again = run_enumeration("S3", None, 3, nonunitary_only=True)
    assert manifest_to_json(s3_manifest) == manifest_to_json(again)


def _stdlib_json(obj) -> str:
    """The CLI printers' reference."""
    return json.dumps(obj, indent=2, sort_keys=True)


def _stdlib_manifest_json(manifest) -> str:
    """``manifest_to_json``'s reference."""
    return json.dumps(manifest_dict(manifest), sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize(
    "group,d,nonunitary_only",
    [("Z3", 1, False), ("Z2", 2, False), ("S3", 3, False), ("SU2", 4, True), ("SO3", 5, True)],
)
def test_manifest_json_matches_stdlib(group, d, nonunitary_only):
    manifest = run_enumeration(group, None, d, nonunitary_only=nonunitary_only)
    shapes = {(s.K, s.d) for r in manifest.records for s in r.kraus_samples}
    assert shapes and (d > 1 or shapes == {(1, 1)})
    if group == "SU2":  # several Kraus counts per manifest, up to K = d
        assert {K for K, _ in shapes} == {2, 3, 4}
    assert manifest_to_json(manifest) == _stdlib_manifest_json(manifest)


def test_hand_built_manifest_json_matches_stdlib(z2_manifest):
    empty = RunManifest(
        group="S3",
        kind="discrete",
        d=3,
        tolerances={"kernel": 1e-10, "tp": 1e-10, "rank": 1e-8},
        seed=0,
        options={"reps": None},
    )
    assert manifest_to_json(empty) == _stdlib_manifest_json(empty)

    found = [r for r in z2_manifest.records if r.residuals]
    odd = [
        dataclasses.replace(
            found[0],
            error='said "no", C:\\path\\x\nnext line, caf\u00e9 \u2713',
            residuals={"covariance": float("nan"), "tp": float("inf"), "rank_sigma_min": -0.0},
            moduli_constraints=["0.5|u1|^2 + 0.5|u2|^2 = 1", "|u3|^2 = 1"],
        ),
        dataclasses.replace(
            found[1],
            residuals={"covariance": 5e-324, "tp": -float("inf"), "rank_sigma_min": 1e300},
        ),
    ]
    manifest = dataclasses.replace(
        z2_manifest,
        options={**z2_manifest.options, "reps": ["q0+q0", "q1+q1"]},
        records=odd,
    )
    text = manifest_to_json(manifest)
    assert text == _stdlib_manifest_json(manifest)
    assert "NaN" in text and "-Infinity" in text and "5e-324" in text and "-0.0" in text
    assert "\\u00e9" in text and '\\"no\\"' in text


def test_save_load_round_trip(tmp_path, s3_manifest):
    path = tmp_path / "s3.json"
    save_manifest(s3_manifest, path)
    loaded = load_manifest(path)
    assert manifest_to_json(loaded) == manifest_to_json(s3_manifest)

    obj = json.loads(path.read_text())
    obj["records"][0]["d2_label"] = "1+1+5"
    path.write_text(json.dumps(obj))
    with pytest.raises(SchemaError, match="unknown representation label '1\\+1\\+5'"):
        load_manifest(path)


@pytest.mark.parametrize(
    "key,value,message",
    [("omega_index", 99, "record 0: S3 has no irrep with index 99"),
     ("omega_label", "bogus", "record 0: omega_label 'bogus' is not irrep 2's label '2'"),
     ("n_params", -5, "record 0: n_params -5 is negative")],
)
def test_a_channel_label_off_the_catalog_is_a_schema_error(tmp_path, capsys, s3_manifest, key, value, message):
    path = tmp_path / "s3.json"
    save_manifest(s3_manifest, path)
    obj = json.loads(path.read_text())
    assert obj["records"][0]["omega_index"] == 2
    obj["records"][0][key] = value
    path.write_text(json.dumps(obj))
    with pytest.raises(SchemaError, match=message) as raised:
        load_manifest(path)
    assert isinstance(raised.value.__cause__, UnknownIrrepIndex) is (key == "omega_index")
    assert main(["report", "--in", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_lie_channel_label_may_exceed_the_dimension(tmp_path):
    # Stored Kraus sets may have K > d, so a Lie label is checked against
    # the group's whole catalog: SU2's irrep 4 is "5" at any d.
    path = tmp_path / "su2.json"
    save_manifest(run_enumeration("SU2", None, 2), path)
    obj = json.loads(path.read_text())
    obj["records"][0].update(omega_index=4, omega_label="5")
    path.write_text(json.dumps(obj))
    assert load_manifest(path).records[0].omega_label == "5"
    obj["records"][0].update(omega_index=-1)
    path.write_text(json.dumps(obj))
    with pytest.raises(SchemaError, match="record 0: SU2 has no irrep with index -1"):
        load_manifest(path)


@pytest.mark.parametrize("enabled", [True, False])
def test_reads_restore_the_collector_state(tmp_path, z2_manifest, enabled):
    # The reads pause the cyclic collector while a parsed JSON tree lives.
    good, bad_json, bad_record = (tmp_path / name for name in ("good.json", "bad.json", "record.json"))
    save_manifest(z2_manifest, good)
    bad_json.write_text('{"records": [')
    obj = json.loads(good.read_text())
    obj["records"][1] = 5
    bad_record.write_text(json.dumps(obj))
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for read in (load_manifest, classify_file):
            assert read(good) and gc.isenabled() is enabled
            for path in (bad_json, bad_record):
                with pytest.raises(SchemaError):
                    read(path)
                assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_indented_manifests_still_load(tmp_path, s3_manifest):
    # Manifests were written in the indent=2 layout before they became compact.
    compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
    save_manifest(s3_manifest, compact)
    indented.write_text(json.dumps(manifest_dict(s3_manifest), indent=2, sort_keys=True) + "\n")
    assert compact.read_text() == manifest_to_json(s3_manifest)
    assert manifest_to_json(load_manifest(indented)) == manifest_to_json(load_manifest(compact))
    entries = classify_file(compact)
    assert entries and all(e["error"] is None for e in entries)
    assert classify_file(indented) == entries


@pytest.mark.parametrize(
    "residuals",
    [{"tp": 1e-12}, {"covariance": 0.0, "tp": 0.0, "rank_sigma_min": "0.5"},
     {"covariance": 0.0, "tp": 0.0, "rank_sigma_min": 0.5, "extra": 0.0}, [1e-12]],
)
def test_malformed_residuals_are_schema_errors(tmp_path, capsys, z2_manifest, residuals):
    path = tmp_path / "z2.json"
    save_manifest(z2_manifest, path)
    obj = json.loads(path.read_text())
    found = [rec for rec in obj["records"] if rec["residuals"]]
    assert found and all(
        sorted(rec["residuals"]) == ["covariance", "rank_sigma_min", "tp"] for rec in found
    )
    found[0]["residuals"] = residuals
    path.write_text(json.dumps(obj))
    with pytest.raises(SchemaError, match="residuals must be empty"):
        load_manifest(path)
    assert main(["report", "--in", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: residuals must be empty")


@pytest.mark.parametrize(
    "record,key,value,command",
    [(None, "tolerances", "ab", "report"), (None, "options", "ab", "report"),
     (0, "moduli_constraints", "x = 1", "report"), (0, "kraus_samples", 5, "classify"),
     (0, "d", 2.0, "report"), (0, "omega_index", True, "report"), (0, "n_params", {}, "report"),
     (0, "status", [1], "report"), (0, "omega_label", None, "report"),
     (0, "classification", 3, "report"), (0, "error", 5, "report"), (0, "group", 5, "report"),
     (None, "seed", [1], "report"), (None, "total_instances", None, "report"), (None, "count_found", "x", "report"),
     ("options", "n_starts", "x", "report"), ("options", "nonunitary_only", 1, "report"),
     ("options", "reps", ["q0+q0", 1], "report"), ("options", "time_budget", "10", "report"),
     (0, "status", "bogus", "report"), (0, "classification", "maybe", "report"),
     (0, "moduli_constraints", [1, None], "report")],
)
def test_malformed_manifest_fields_are_schema_errors(tmp_path, capsys, z2_manifest, record, key, value, command):
    # ``record`` picks where ``key`` is set: the manifest (None), its
    # options ("options") or the record at that position
    path = tmp_path / "z2.json"
    save_manifest(z2_manifest, path)
    obj = json.loads(path.read_text())
    target = obj if record is None else obj["options"] if record == "options" else obj["records"][record]
    target[key] = value
    path.write_text(json.dumps(obj))
    assert main([command, "--in", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key!r} must be a JSON ")


@pytest.mark.parametrize(
    "counts", [{"total_instances": 5}, {"count_found": 99}, {"total_instances": 5, "count_found": 99}]
)
def test_manifest_counts_must_match_its_records(tmp_path, capsys, z2_manifest, counts):
    path = tmp_path / "z2.json"
    save_manifest(z2_manifest, path)
    obj = json.loads(path.read_text())
    assert (obj["total_instances"], obj["count_found"]) == (len(obj["records"]), 6) == (18, 6)
    obj.update(counts)
    path.write_text(json.dumps(obj))
    with pytest.raises(SchemaError, match="but its records hold 18 instances, 6 found"):
        load_manifest(path)
    assert main(["report", "--in", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: manifest counts instances ")


@pytest.mark.parametrize("key,value,of", [("group", "Z3", "Z3 d=2"), ("d", 3, "Z2 d=3")])
def test_a_record_of_another_group_or_dimension_is_a_schema_error(tmp_path, capsys, z2_manifest, key, value, of):
    path = tmp_path / "z2.json"
    save_manifest(z2_manifest, path)
    obj = json.loads(path.read_text())
    obj["records"][5][key] = value
    path.write_text(json.dumps(obj))
    with pytest.raises(SchemaError, match=f"record 5 is of {of}, its manifest of Z2 d=2"):
        load_manifest(path)
    assert main(["report", "--in", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: record 5 is of ")


def test_a_manifest_with_fewer_records_saves_its_own_counts(tmp_path, z2_manifest):
    found = [r for r in z2_manifest.records if r.status == "channel_found"][:2]
    other = next(r for r in z2_manifest.records if r.status != "channel_found")
    subset = dataclasses.replace(z2_manifest, records=[other, *found])
    path = tmp_path / "z2.json"
    save_manifest(subset, path)
    obj = json.loads(path.read_text())
    assert (obj["total_instances"], obj["count_found"]) == (3, 2)
    assert manifest_to_json(load_manifest(path)) == manifest_to_json(subset)


def test_non_numeric_tolerance_is_a_schema_error(tmp_path, capsys, z2_manifest):
    path = tmp_path / "z2.json"
    obj = json.loads(manifest_to_json(z2_manifest))
    obj["tolerances"]["kernel"] = "x"
    path.write_text(json.dumps(obj))
    assert main(["report", "--format", "json", "--in", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: 'kernel' must be a JSON number")


def test_cli_round_trip_imports_no_scipy(tmp_path):
    # run, report and classify need numpy alone: with scipy made
    # unimportable, each still exits 0.
    script = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None
        from gcec.cli import main
        path = sys.argv[1]
        for argv in (["run", "--group", "S3", "--dim", "3", "--out", path], ["report", "--in", path],
                     ["classify", "--in", path]):
            assert main(argv) == 0, argv
    """)
    src = pathlib.Path(gcec.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "s3.json")], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("d", [9, 11])
def test_so3_manifest_does_not_depend_on_the_blas_thread_count(tmp_path, d):
    # The spin path's small products stay below OpenBLAS's threading sizes,
    # and Lie blocks are built from their highest-weight vectors with no
    # SVD, so one and two threads give the same bytes (README "Determinism").
    src = pathlib.Path(gcec.__file__).parents[1]
    written = []
    for threads in ("1", "2"):
        path = tmp_path / f"so3-{threads}.json"
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
        }
        argv = ["run", "--group", "SO3", "--dim", str(d), "--seed", "7", "--out", str(path)]
        done = subprocess.run([sys.executable, "-m", "gcec.cli", *argv], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        written.append(path.read_bytes())
    assert written[0] == written[1]


def test_a_kernel_basis_too_large_for_memory_is_an_error_before_any_build(monkeypatch):
    # Z1 d=1100: one instance with 1100^2 parameters, whose dense basis would
    # take K d^2 n_params 16 bytes; the sweep records that, without factoring.
    def never(*args, **kwargs):
        raise AssertionError("joint_nullspace was called")

    monkeypatch.setattr(pipeline, "joint_nullspace", never)
    (record,) = run_enumeration("Z1", None, 1100).records
    need = 1100**2 * 1100**2 * 16
    assert record.status == "error" and record.n_params == 1100**2
    assert record.error == (
        f"MemoryError: a dense kernel basis of {need} bytes exceeds the {pipeline._physical_memory()} bytes of"
        " physical memory"
    )
    assert not record.kraus_samples and record.classification == "not_applicable"


def test_classify_file_on_manifest(tmp_path, a4_manifest):
    path = tmp_path / "a4.json"
    save_manifest(a4_manifest, path)
    results = classify_file(path)
    expected = []
    for r in a4_manifest.records:
        expected.extend([r.classification] * len(r.kraus_samples))
    assert len(results) == len(expected)
    for entry, want in zip(results, expected):
        assert entry["error"] is None
        assert entry["classification"] == want


def test_classify_file_payload_shapes(tmp_path):
    single = tmp_path / "single.json"
    single.write_text(json.dumps(kraus_dict(identity_kraus(3))))
    (only,) = classify_file(single)
    assert only["classification"] == "unitary" and only["K"] == 1

    mixed = tmp_path / "mixed.json"
    mixed.write_text(
        json.dumps(
            [
                kraus_dict(s3_qutrit_family(0.5**0.5, 0.5**0.5, 0.5)),
                kraus_dict(a4_qutrit_triple_alt_gauge()),
                kraus_dict([0.7 * np.eye(2)]),
            ]
        )
    )
    locus, alt, broken = classify_file(mixed)
    assert locus["classification"] == "quasi_extreme"
    assert alt["classification"] == "extreme"
    assert broken["classification"] is None
    assert "NotTracePreserving" in broken["error"]

    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps({"kraus_sets": [kraus_dict(identity_kraus(2))]}))
    (entry,) = classify_file(wrapped)
    assert entry["classification"] == "unitary"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError):
        classify_file(bad)
    scalar = tmp_path / "scalar.json"
    scalar.write_text("42")
    with pytest.raises(SchemaError):
        classify_file(scalar)


def test_run_rejects_unknown_rep_label():
    with pytest.raises(UnknownGroup) as err:
        run_enumeration("S3", None, 3, reps=["1+2", "nope"])
    assert "available" in str(err.value)


def test_run_rejects_reps_that_name_nothing():
    with pytest.raises(UnknownGroup) as err:
        run_enumeration("S3", None, 3, reps=[])
    assert "available" in str(err.value)


def test_empty_manifest_report():
    manifest = RunManifest(
        group="S3",
        kind="discrete",
        d=3,
        tolerances={"kernel": 1e-10, "tp": 1e-10, "rank": 1e-8},
        seed=0,
        options={},
    )
    text = report(manifest, "text")
    assert "instances 0, channels found 0" in text
    parsed = json.loads(report(manifest, "json"))
    assert parsed["records"] == []
    with pytest.raises(SchemaError):
        report(manifest, "yaml")


def test_report_text_table(s3_manifest):
    text = report(s3_manifest, "text")
    assert "instances 36, channels found 4" in text
    assert "channel_found" in text and "no_tp_solution" in text
    # one header plus one line per record plus the three-line preamble
    assert len(text.rstrip("\n").split("\n")) == 4 + 36


def test_cli_catalog_and_enumerate(capsys):
    assert main(["catalog", "--group", "S3", "--dim", "3"]) == 0
    out = capsys.readouterr().out
    assert "irrep 2" in out and "dim 2" in out

    assert main(["enumerate", "--group", "S3", "--dim", "3",
                 "--nonunitary-only", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["total_instances"] == 36
    assert len(obj["reps"]) == 6 and obj["omega_candidates"] == ["2"]


def test_cli_run_writes_manifest(tmp_path, capsys, monkeypatch):
    encoded = []

    def counted(manifest):
        encoded.append(manifest)
        return manifest_to_json(manifest)

    monkeypatch.setattr(cli, "manifest_to_json", counted)
    out_path = tmp_path / "z2.json"
    rc = main([
        "run", "--group", "Z2", "--dim", "2",
        "--reps", "q0+q0,q0+q1", "--out", str(out_path), "--format", "json",
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert json.loads(stdout)["total_instances"] == 8
    assert out_path.read_bytes() == stdout.encode()
    assert len(encoded) == 1  # one encoding serves the file and stdout


def test_cli_json_outputs_match_stdlib(tmp_path, capsys, s3_manifest):
    def stdout_of(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    obj = json.loads(stdout_of(["catalog", "--group", "SU2", "--dim", "3", "--format", "json"]))
    assert obj["irreps"][1]["generators"]
    assert stdout_of(["catalog", "--group", "SU2", "--dim", "3", "--format", "json"]) == _stdlib_json(obj) + "\n"
    argv = ["enumerate", "--group", "A4", "--dim", "3", "--format", "json"]
    assert stdout_of(argv) == _stdlib_json(json.loads(stdout_of(argv))) + "\n"

    manifest_path = tmp_path / "s3.json"
    save_manifest(s3_manifest, manifest_path)
    assert stdout_of(["report", "--in", str(manifest_path), "--format", "json"]) == _stdlib_manifest_json(s3_manifest)
    verdict_path = tmp_path / "verdicts.json"
    stdout = stdout_of(["classify", "--in", str(manifest_path), "--out", str(verdict_path)])
    assert stdout == _stdlib_json(classify_file(manifest_path)) + "\n"
    assert verdict_path.read_text() == stdout


def test_cli_run_text_report(capsys):
    rc = main(["run", "--group", "S3", "--dim", "3", "--nonunitary-only"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "channels found 4" in out


def test_cli_classify_and_report(tmp_path, capsys):
    kraus_path = tmp_path / "id.json"
    kraus_path.write_text(json.dumps(kraus_dict(identity_kraus(2))))
    verdict_path = tmp_path / "verdicts.json"
    rc = main(["classify", "--in", str(kraus_path), "--out", str(verdict_path)])
    assert rc == 0
    capsys.readouterr()
    assert json.loads(verdict_path.read_text())[0]["classification"] == "unitary"

    manifest_path = tmp_path / "s3.json"
    save_manifest(run_enumeration("S3", None, 3, nonunitary_only=True), manifest_path)
    rc = main(["report", "--in", str(manifest_path)])
    assert rc == 0
    assert "channels found 4" in capsys.readouterr().out


def test_cli_error_paths(tmp_path, capsys):
    assert main(["catalog", "--group", "Q8", "--dim", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert main(["run", "--group", "Z02", "--dim", "1"]) == 1  # Z2 has one name
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1

    missing = tmp_path / "missing-label.json"
    assert main(["run", "--group", "S3", "--dim", "3", "--reps", "nope"]) == 1
    assert "error:" in capsys.readouterr().err
    assert not missing.exists()

    for empty in ("", ","):  # a --reps that names nothing sweeps nothing
        assert main(["run", "--group", "S3", "--dim", "3", "--reps", empty, "--out", str(missing)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not missing.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--in", "{tmp}/missing.json"],
        ["classify", "--in", "{tmp}/missing.json"],
        ["run", "--group", "Z2", "--dim", "2", "--out", "{tmp}/no/such/dir/x.json"],
        ["report", "--in", "{tmp}/utf16.json"],
    ],
    ids=["report-missing", "classify-missing", "run-unwritable", "report-not-utf8"],
)
def test_cli_file_errors_are_one_line(tmp_path, argv):
    # A file that cannot be read, written or decoded is an error line and
    # exit status 1, never a traceback.
    (tmp_path / "utf16.json").write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
    src = pathlib.Path(gcec.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    done = subprocess.run([sys.executable, "-m", "gcec.cli", *argv], env=env, capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr


def _per_instance(group, d, nonunitary_only, seed=0):
    """(n_params, status, classification) of every instance of a sweep, in
    sweep order, each instance solved on its own."""
    kind = infer_kind(group)
    build = build_discrete_system if kind == "discrete" else build_lie_system
    spec = props(group, kind, d).group
    reps_ = [materialize(spec, lab) for lab in enumerate_reps(spec, d)]
    statuses = {"solved": "channel_found", "no_solution": "no_tp_solution", "solver_failed": "solver_failed"}
    out = []
    for omega in omega_candidates(spec, d):
        if nonunitary_only and omega.dim < 2:
            continue
        for r1 in reps_:
            for r2 in reps_:
                family = joint_nullspace(build(r1, r2, omega))
                if family.n_params == 0:
                    out.append((0, "no_cp_map", "not_applicable"))
                    continue
                tp = solve_tp(family, seed=[seed, omega.index, *r1.label.parts, 0xFFFFFFFF, *r2.label.parts])
                classification = "not_applicable"
                if tp.status == "solved":
                    samples = [family.kraus_at(c) for c in tp.solutions]
                    if omega.dim == 1:
                        classification = "unitary"
                    elif all(extremality.test_extreme(s[None]).is_extreme for s in samples):
                        classification = "extreme"
                    else:
                        classification = "quasi_extreme"
                out.append((family.n_params, statuses[tp.status], classification))
    return out


@pytest.fixture(scope="module")
def z4_manifest():
    return run_enumeration("Z4", None, 3)


@pytest.mark.parametrize(
    "group,d,nonunitary_only",
    [
        ("Z4", 3, False),
        ("S3", 5, True),
        ("A4", 4, True),
        ("D5", 4, True),
        # the block table decides every Lie instance; SU2 d=4 has blocks
        # with no free entry (spin 1/2 against integer spins)
        ("SO3", 7, False),
        ("SU2", 5, False),
        ("SU2", 4, False),
    ],
)
def test_label_classes_match_per_instance_solves(request, monkeypatch, group, d, nonunitary_only):
    full = request.getfixturevalue("z4_manifest") if group == "Z4" else None  # swept before the spy
    solves = []

    def counted(*args, **kwargs):
        solves.append(solve_tp(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(pipeline, "solve_tp", counted)
    manifest = run_enumeration(group, None, d, nonunitary_only=nonunitary_only)
    if full is not None:  # the module's full sweep gives the same records
        assert manifest_to_json(manifest) == manifest_to_json(full)
    got = [(r.n_params, r.status, r.classification) for r in manifest.records]
    assert got == _per_instance(group, d, nonunitary_only)
    assert all(r.error is None for r in manifest.records)
    # one TP solve per class that ends channel_found, far fewer than
    # instances with a nonzero kernel, and none for any other class
    found = [
        (r.omega_index, r.d1_label.parts, r.d2_label.parts) for r in manifest.records if r.status == "channel_found"
    ]
    if infer_kind(group) == "discrete":
        classes = LabelClasses(props(group, "discrete", d).group)
        found = {classes.representative(inst)[0] for inst in found}
    assert 0 < len(solves) == len(found) < sum(r.n_params > 0 for r in manifest.records)
    assert all(report.status == "solved" for report in solves)


@pytest.mark.parametrize("tol_rank", [-1.0, 0.0, 1.0, 2.0, float("nan"), float("inf")])
def test_meaningless_tol_rank_is_rejected_up_front(tmp_path, capsys, monkeypatch, tol_rank):
    # -1.0 used to make every non-unitary family extreme and NaN every one
    # quasi_extreme; now nothing is swept or read.
    def visited(*args):
        raise AssertionError("an instance was visited")

    monkeypatch.setattr(pipeline, "materialize", visited)
    with pytest.raises(BadTolerance, match=r"tol_rank must lie in \(0, 1\)"):
        run_enumeration("S3", None, 3, tol_rank=tol_rank)
    missing = tmp_path / "missing.json"  # never opened
    with pytest.raises(BadTolerance):
        classify_file(missing, tol_rank=tol_rank)
    for command in (["run", "--group", "S3", "--dim", "3"], ["classify", "--in", str(missing)]):
        assert main([*command, f"--tol-rank={tol_rank}"]) == 1
        assert capsys.readouterr().err.startswith("error: tol_rank must lie in (0, 1)")


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, "3", True, None])
def test_bad_seed_is_rejected_up_front(monkeypatch, seed):
    # -1 used to make every solvable instance an error ("expected non-negative
    # integer") in a sweep that reported no channel; now nothing is swept.
    def visited(*args):
        raise AssertionError("an instance was visited")

    monkeypatch.setattr(pipeline, "materialize", visited)
    with pytest.raises(BadSeed, match="seed must be a non-negative integer"):
        run_enumeration("S3", None, 3, seed=seed)


def test_numpy_integer_seed_sweeps_as_its_int(s3_manifest):
    swept = run_enumeration("S3", None, 3, nonunitary_only=True, seed=np.int64(0))
    assert manifest_to_json(swept) == manifest_to_json(s3_manifest)


def test_cli_negative_seed_exits_1(capsys):
    assert main(["run", "--group", "S3", "--dim", "3", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be a non-negative integer, got -1\n" and not captured.out


def test_sweep_passes_its_tol_rank_to_the_tp_solver(monkeypatch):
    # The canonical vertex depends on tol_rank
    # (tests/test_tp.py::test_canonical_vertex_follows_tol_rank, on these labels).
    seen = []

    def counted(*args, **kwargs):
        seen.append(kwargs["tol_rank"])
        return solve_tp(*args, **kwargs)

    monkeypatch.setattr(pipeline, "solve_tp", counted)
    loose = run_enumeration("D5", None, 4, nonunitary_only=True, tol_rank=0.75, reps=["1+1'+2_2", "2_1+2_1"])
    assert seen and set(seen) == {0.75}
    default = run_enumeration("D5", None, 4, nonunitary_only=True, reps=["1+1'+2_2", "2_1+2_1"])
    firsts = [(a.kraus_samples[0], b.kraus_samples[0]) for a, b in zip(loose.records, default.records) if a.kraus_samples]
    assert any(not np.allclose(a.matrices, b.matrices) for a, b in firsts)


def test_sub_sweep_without_representative_reproduces_full_records(z4_manifest):
    kept = ["q0+q1+q3", "q1+q2+q3"]
    sub = run_enumeration("Z4", None, 3, reps=kept)
    spec = props("Z4", "discrete", 3).group
    classes = LabelClasses(spec)
    swept = {r.d1_label.parts for r in sub.records}
    reps_ = [classes.representative((r.omega_index, r.d1_label.parts, r.d2_label.parts))[0] for r in sub.records]
    assert any(
        not {parts1, parts2} <= swept and r.status == "channel_found"
        for r, (_, parts1, parts2) in zip(sub.records, reps_)
    )  # a transported record whose representative is not swept
    full = {(r.omega_index, r.d1_label.text, r.d2_label.text): r for r in z4_manifest.records}
    assert len(sub.records) == 4 * 4
    for r in sub.records:
        assert record_dict(r, sub) == record_dict(full[r.omega_index, r.d1_label.text, r.d2_label.text], z4_manifest)


def test_sub_sweep_reproduces_records_moved_by_an_automorphism():
    # (2_2, 1+1'+2_1, 2_1+2_2) is reached from (2_1, 1+1'+2_2, 2_1+2_2) only
    # by the automorphism swapping 2_1 and 2_2, and 1+1'+2_2 is not swept.
    kept = ["1+1'+2_1", "2_1+2_2"]
    sub = run_enumeration("D5", None, 4, nonunitary_only=True, reps=kept)
    full = run_enumeration("D5", None, 4, nonunitary_only=True)
    classes = LabelClasses(props("D5", "discrete", 4).group)
    swept = {r.d1_label.parts for r in sub.records}
    heads = [classes.representative((r.omega_index, r.d1_label.parts, r.d2_label.parts)) for r in sub.records]
    assert any(
        move is not None and move.aut > 0 and not {parts1, parts2} <= swept and r.status == "channel_found"
        for r, ((_, parts1, parts2), move) in zip(sub.records, heads)
    )
    by_key = {(r.omega_index, r.d1_label.text, r.d2_label.text): r for r in full.records}
    assert len(sub.records) == 2 * 2 * 2
    for r in sub.records:
        assert record_dict(r, sub) == record_dict(by_key[r.omega_index, r.d1_label.text, r.d2_label.text], full)


@pytest.mark.parametrize("scale,reason", [(1.0, "covariance residual"), (2.0, "NotTracePreserving")])
def test_failed_transport_is_an_error_not_solver_failed(monkeypatch, s3_manifest, scale, reason):
    # S3's 2-dim irrep twisted by the sign character needs a real intertwiner;
    # replace it by a wrong matrix (the identity, or twice the identity).
    monkeypatch.setattr(classes_module, "intertwiner", lambda target, moved: scale * np.eye(len(target[0])))
    manifest = run_enumeration("S3", None, 3, nonunitary_only=True)
    broken = [r for r in manifest.records if r.status == "error"]
    assert broken
    assert not any(r.status == "solver_failed" for r in manifest.records)
    for r, ref in zip(manifest.records, s3_manifest.records):
        if r.status == "error":
            assert ref.status == "channel_found" and r.n_params == ref.n_params
            assert r.error.startswith("transport failed") and reason in r.error
            assert not r.kraus_samples and r.classification == "not_applicable" and not r.residuals
        else:
            assert record_dict(r, manifest) == record_dict(ref, s3_manifest)
