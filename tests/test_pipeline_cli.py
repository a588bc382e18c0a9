"""Full enumeration pipeline, persistence, classify-file loop, and the CLI."""

import collections
import json

import numpy as np
import pytest

from gcec.channels import KrausSet, kraus_to_dict
from gcec.cli import main
from gcec.errors import SchemaError, UnknownGroup
from gcec import pipeline
from gcec.pipeline import (
    RunManifest,
    classify_file,
    load_manifest,
    manifest_to_json,
    record_to_dict,
    report,
    run_enumeration,
    save_manifest,
)

from fixtures import a4_qutrit_triple_alt_gauge, identity_kraus, s3_qutrit_family


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
        a = json.dumps(record_to_dict(full), sort_keys=True)
        b = json.dumps(record_to_dict(sub), sort_keys=True)
        assert a == b


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
                    assert ks.tp_residual() <= 1e-9
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


def test_manifest_json_is_deterministic(s3_manifest):
    again = run_enumeration("S3", None, 3, nonunitary_only=True)
    assert manifest_to_json(s3_manifest) == manifest_to_json(again)


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
    single.write_text(json.dumps(kraus_to_dict(KrausSet.from_matrices(identity_kraus(3)))))
    (only,) = classify_file(single)
    assert only["classification"] == "unitary" and only["K"] == 1

    mixed = tmp_path / "mixed.json"
    mixed.write_text(
        json.dumps(
            [
                kraus_to_dict(
                    KrausSet.from_matrices(s3_qutrit_family(0.5**0.5, 0.5**0.5, 0.5))
                ),
                kraus_to_dict(KrausSet.from_matrices(a4_qutrit_triple_alt_gauge())),
                kraus_to_dict(KrausSet.from_matrices([0.7 * np.eye(2)])),
            ]
        )
    )
    locus, alt, broken = classify_file(mixed)
    assert locus["classification"] == "quasi_extreme"
    assert alt["classification"] == "extreme"
    assert broken["classification"] is None
    assert "NotTracePreserving" in broken["error"]

    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(
        json.dumps(
            {"kraus_sets": [kraus_to_dict(KrausSet.from_matrices(identity_kraus(2)))]}
        )
    )
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


def test_empty_manifest_report():
    manifest = RunManifest(
        group="S3",
        kind="discrete",
        d=3,
        tolerances={"kernel": 1e-10, "tp": 1e-10, "rank": 1e-8},
        seed=0,
        options={},
        total_instances=0,
        count_found=0,
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


def test_cli_run_writes_manifest(tmp_path, capsys):
    out_path = tmp_path / "z2.json"
    rc = main([
        "run", "--group", "Z2", "--dim", "2",
        "--reps", "q0+q0,q0+q1", "--out", str(out_path), "--format", "json",
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert json.loads(stdout)["total_instances"] == 8
    assert out_path.read_text() == stdout


def test_cli_run_text_report(capsys):
    rc = main(["run", "--group", "S3", "--dim", "3", "--nonunitary-only"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "channels found 4" in out


def test_cli_classify_and_report(tmp_path, capsys):
    kraus_path = tmp_path / "id.json"
    kraus_path.write_text(json.dumps(kraus_to_dict(KrausSet.from_matrices(identity_kraus(2)))))
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

    missing = tmp_path / "missing-label.json"
    assert main(["run", "--group", "S3", "--dim", "3", "--reps", "nope"]) == 1
    assert "error:" in capsys.readouterr().err
    assert not missing.exists()
