"""Batched Kraus-set checks against a per-set reference.

``classify_file`` checks the sets of each (K, d) shape as one stack, and a
sweep record checks its samples as one stack.  The reference here runs the
same checks one set at a time with plain per-set numpy: the Choi matrix as
a sum of outer products, the TP residual as ``np.linalg.norm`` of
sum_k A_k^dag A_k - I, and the rank test as an SVD of the d^2 x K^2 matrix
of the vectorized products A_k^dag A_l.
"""

import collections
import copy
import dataclasses
import json

import numpy as np
import pytest

from gcec import classes as classes_module
from gcec import pipeline
from gcec.channels import kraus_from_dict, tp_residuals
from gcec.classes import LabelClasses
from gcec.cli import main
from gcec.errors import NotTracePreserving, SchemaError
from gcec.extremality import test_extreme as rank_test
from gcec.groups import props
from gcec.kernels import KernelFamily, covariance_residual
from gcec.pipeline import classify_file, run_enumeration
from gcec.reps import make_rep_label, materialize
from gcec.tp import solve_tp

from fixtures import kraus_dict, malformed_kraus_dicts, manifest_dict, record_dict
from oracles import random_unitary

TOL_RANK = TOL_TP = 1e-8
FLOATS = ("choi_min_eigenvalue", "tp_residual", "min_singular_value")


def _reference_entry(tag, item) -> dict:
    """One entry of ``classify_file``, computed for this set alone."""
    entry = {"source": tag, "classification": None, "error": None}
    try:
        mats = kraus_from_dict(item).matrices
        K, d = mats.shape[:2]
        entry.update({"d": d, "K": K})
        choi = sum(np.outer(m.reshape(-1), m.reshape(-1).conj()) for m in mats) / d
        eigvals = np.linalg.eigvalsh(choi)
        entry["choi_min_eigenvalue"] = floor = float(eigvals[0])
        if floor < -1e-10 * max(1.0, eigvals[-1]):
            raise SchemaError(f"not completely positive: min Choi eigenvalue {floor:.3e}")
        entry["tp_residual"] = tp = float(np.linalg.norm(sum(m.conj().T @ m for m in mats) - np.eye(d)))
        if tp > TOL_TP:
            raise NotTracePreserving(f"trace-preservation residual {tp:.3e} exceeds {TOL_TP:.1e}")
        products = np.array([(a.conj().T @ b).reshape(-1) for a in mats for b in mats]).T
        svals = np.linalg.svd(products, compute_uv=False)
        rank = int(np.sum(svals > TOL_RANK * svals[0])) if svals[0] > 0 else 0
        extreme = K <= d and rank == K * K
        entry.update(
            {
                "rank": rank,
                "expected_rank": K * K,
                "min_singular_value": float(svals[-1]),
                "classification": "unitary" if K == 1 else ("extreme" if extreme else "quasi_extreme"),
            }
        )
    except (SchemaError, NotTracePreserving) as exc:
        entry["error"] = f"{type(exc).__name__}: {exc}"
    return entry


def _isometry(rng, K, d):
    """K Kraus operators of a random trace-preserving set (products span
    min(K^2, d^2) dimensions)."""
    q, _ = np.linalg.qr(rng.normal(size=(K * d, d)) + 1j * rng.normal(size=(K * d, d)))
    return q.reshape(K, d, d)


def _diagonal(rng, K, d):
    """K diagonal Kraus operators of a trace-preserving set: their products
    span at most d dimensions, so the set is rank deficient once K^2 > d."""
    w = rng.random((K, d))
    w /= np.sqrt((w**2).sum(axis=0))
    return np.array([np.diag(row * np.exp(2j * np.pi * rng.random(d))) for row in w])


@pytest.mark.parametrize("S,K,d", [(5, 1, 1), (7, 9, 1), (4, 2, 3), (6, 9, 9), (3, 4, 2), (1, 3, 10)])
def test_rank_test_equals_the_per_set_loop_bit_for_bit(S, K, d):
    # Manifests store these values, so each set's value must not depend on
    # the stack it is checked in (d = 1 included, where a reduction over K
    # would otherwise be summed pairwise; S = 1 is how the TP solver checks
    # one point).
    rng = np.random.default_rng([93, S, K, d])
    stack = rng.normal(size=(S, K, d, d)) + 1j * rng.normal(size=(S, K, d, d))
    test = rank_test(stack)
    for i, mats in enumerate(stack):
        tp = np.linalg.norm(sum(m.conj().T @ m for m in mats) - np.eye(d))
        products = np.array([(a.conj().T @ b).reshape(-1) for a in mats for b in mats]).T
        assert test.tp_residual[i] == tp
        assert np.array_equal(test.singular_values[i], np.linalg.svd(products, compute_uv=False))


@pytest.mark.parametrize("group,kind,d,parts,omega_index", [("SO3", "lie", 5, (2,), 1), ("S3", "discrete", 3, (0, 2), 2)])
def test_covariance_residual_equals_the_per_set_loop_bit_for_bit(group, kind, d, parts, omega_index):
    spec = props(group, kind, d).group
    D = materialize(spec, make_rep_label(spec, parts))
    omega = spec.irrep_by_index(omega_index)
    rng = np.random.default_rng(94)
    stack = rng.normal(size=(6, omega.dim, d, d)) + 1j * rng.normal(size=(6, omega.dim, d, d))
    batched = covariance_residual(stack, D, D, omega, kind)
    assert batched.shape == (6,)
    assert batched.tolist() == [float(covariance_residual(x, D, D, omega, kind)) for x in stack]


def _mixed_items(rng):
    """Sets of seven shapes in interleaved order: K > d, rank-deficient
    diagonal sets, K = 1, K > d^2 (whose CP floor comes from the Choi
    matrix, where K < d^2 takes it from the Gram matrix), a non-TP set
    inside the (2, 3) group, and two entries that fail the schema."""
    sets = [
        _isometry(rng, 2, 3),
        _isometry(rng, 1, 2),
        _isometry(rng, 3, 2),
        _diagonal(rng, 2, 3),
        _isometry(rng, 2, 3),
        0.5 * _isometry(rng, 2, 3),  # not trace preserving
        _diagonal(rng, 3, 2),
        _isometry(rng, 1, 3),
        _isometry(rng, 4, 2),
        _isometry(rng, 2, 3),
        _isometry(rng, 3, 3),
        _isometry(rng, 1, 2) @ random_unitary(rng, 2),
        _isometry(rng, 5, 2),
    ]
    items = [kraus_dict(s) for s in sets]
    items.insert(3, {"d": 2, "K": 1, "kraus": [[[1.0, 0.0]]]})
    items.insert(8, "not a Kraus set")
    return items


def _classify(tmp_path, items, name="sets.json"):
    path = tmp_path / name
    path.write_text(json.dumps(items))
    return classify_file(path, tol_rank=TOL_RANK)


def _assert_same_entry(got, want):
    assert set(got) == set(want)
    for key, value in want.items():
        if key in FLOATS:
            assert abs(got[key] - value) <= 1e-12, (want["source"], key)
        else:
            assert got[key] == value, (want["source"], key)


def test_classify_file_matches_the_per_set_reference(tmp_path):
    items = _mixed_items(np.random.default_rng(90))
    got = _classify(tmp_path, items)
    want = [_reference_entry(f"[{i}]", item) for i, item in enumerate(items)]
    assert [e["source"] for e in got] == [f"[{i}]" for i in range(len(items))]
    for g, w in zip(got, want):
        _assert_same_entry(g, w)
    classes = [e["classification"] for e in got]
    assert {"unitary", "extreme", "quasi_extreme", None} == set(classes)
    assert sum("NotTracePreserving" in (e["error"] or "") for e in got) == 1
    assert sum("SchemaError" in (e["error"] or "") for e in got) == 2
    # the rank-deficient diagonal sets are quasi-extreme with rank <= d
    assert got[4]["classification"] == "quasi_extreme" and got[4]["rank"] <= 3


def test_non_tp_set_leaves_its_group_neighbours_unchanged(tmp_path):
    rng = np.random.default_rng(91)
    good = [_isometry(rng, 2, 3) for _ in range(4)] + [_diagonal(rng, 2, 3)]
    bad = 1.5 * _isometry(rng, 2, 3)
    items = [kraus_dict(s) for s in good]
    with_bad = items[:2] + [kraus_dict(bad)] + items[2:]
    alone = _classify(tmp_path, items, "good.json")
    mixed = _classify(tmp_path, with_bad, "mixed.json")
    assert mixed[2]["error"].startswith("NotTracePreserving: trace-preservation residual")
    assert mixed[2]["classification"] is None and "rank" not in mixed[2]
    assert "tp_residual" in mixed[2] and "choi_min_eigenvalue" in mixed[2]
    for got, want in zip(mixed[:2] + mixed[3:], alone):
        assert {k: v for k, v in got.items() if k != "source"} == {k: v for k, v in want.items() if k != "source"}


def test_non_finite_entries_are_per_entry_schema_errors(tmp_path, capsys):
    rng = np.random.default_rng(92)
    good = [kraus_dict(_isometry(rng, K, 2)) for K in (1, 2, 2, 3)]
    nan_set = kraus_dict(np.eye(2)[None])
    nan_set["kraus"][0][0][0][0] = float("nan")
    inf_set = kraus_dict(_isometry(rng, 2, 2))
    inf_set["kraus"][1][1][0][1] = float("-inf")
    items = [good[0], nan_set, good[1], good[2], inf_set, good[3]]
    got = _classify(tmp_path, items, "nonfinite.json")
    clean = _classify(tmp_path, good, "clean.json")
    for i in (1, 4):
        assert got[i] == {"source": f"[{i}]", "classification": None, "error": "SchemaError: Kraus entries must be finite"}
    for entry, want in zip(got[:1] + got[2:4] + got[5:], clean):
        assert {k: v for k, v in entry.items() if k != "source"} == {k: v for k, v in want.items() if k != "source"}
    assert [e["classification"] for e in clean] == ["unitary", "extreme", "extreme", "quasi_extreme"]
    # the CLI reports the two entries and exits cleanly
    out = tmp_path / "verdicts.json"
    assert main(["classify", "--in", str(tmp_path / "nonfinite.json"), "--out", str(out)]) == 0
    capsys.readouterr()
    assert [e["error"] is None for e in json.loads(out.read_text())] == [True, False, True, True, False, True]


def test_grouped_parsing_gives_each_set_its_own_verdict(tmp_path):
    # The sets of one declared (K, d) are converted in one call; every set
    # must still get the bytes or the error that it gets when parsed alone.
    rng = np.random.default_rng(95)
    good = [kraus_dict(_isometry(rng, 1, 2)) for _ in range(3)]
    nan_set = kraus_dict(np.eye(2)[None])
    nan_set["kraus"][0][1][1][1] = float("nan")
    integers = {"d": 2, "K": 1, "kraus": [[[[0, 1], [0, 0]], [[0, 0], [0, -1]]]]}  # diag(i, -i)
    huge = {"d": 2, "K": 1, "kraus": [[[[2**70, 0], [0, 0]], [[0, 0], [1, 0]]]]}  # beyond int64
    bad = [*malformed_kraus_dicts(), nan_set, integers, huge]
    items = [obj for i, b in enumerate(bad) for obj in (good[i % 3], b)]
    grouped = pipeline._kraus_parser(items)
    for item in items:
        outcomes = []
        for parse in (grouped, kraus_from_dict):
            try:
                outcomes.append(parse(item).matrices.tobytes())
            except SchemaError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
    got = _classify(tmp_path, items, "mixed.json")
    for i, item in enumerate(items):
        (alone,) = _classify(tmp_path, [item], "alone.json")
        assert got[i] == {**alone, "source": f"[{i}]"}
    clean = _classify(tmp_path, items[::2], "clean.json")
    assert [{**e, "source": None} for e in got[::2]] == [{**e, "source": None} for e in clean]
    assert [e["classification"] for e in got[-5::2]] == [None, "unitary", None]
    assert got[-1]["error"] == "SchemaError: Kraus entries must be real numbers, got dtype object"
    # every neighbour and the integer-only set pass, every other set fails
    assert sum(e["error"] is None for e in got) == len(bad) + 1


def test_a_boolean_entry_leaves_its_group_neighbours_unchanged(tmp_path):
    rng = np.random.default_rng(96)
    good = [kraus_dict(_isometry(rng, 2, 2)) for _ in range(4)]
    flagged = kraus_dict(_isometry(rng, 2, 2))
    flagged["kraus"][1][0][1] = [True, 0.0]
    got = _classify(tmp_path, good[:2] + [flagged] + good[2:], "flagged.json")
    clean = _classify(tmp_path, good, "clean.json")
    error = "SchemaError: Kraus entries must be real numbers, got a boolean"
    assert got[2] == {"source": "[2]", "classification": None, "error": error}
    for entry, want in zip(got[:2] + got[3:], clean):
        assert {k: v for k, v in entry.items() if k != "source"} == {k: v for k, v in want.items() if k != "source"}
    assert {e["classification"] for e in clean} == {"extreme"}


def test_a_bad_sample_raises_its_own_error_in_record_order(tmp_path):
    # load_manifest parses every sample before it reads the records, but it
    # must still raise the first bad field in record order, with the text
    # that parsing that sample alone raises.
    fields = manifest_dict(run_enumeration("Z2", None, 2))
    sample = next(s for rec in fields["records"] for s in rec["kraus_samples"])
    path = tmp_path / "z2.json"
    bad = malformed_kraus_dicts()
    for first, second in zip(bad, bad[1:] + bad[:1]):
        obj = copy.deepcopy(fields)
        obj["records"][1]["kraus_samples"] = [sample, first]
        obj["records"][2]["kraus_samples"] = [second]
        path.write_text(json.dumps(obj))
        with pytest.raises(SchemaError) as alone:
            kraus_from_dict(first)
        with pytest.raises(SchemaError) as raised:
            pipeline.load_manifest(path)
        assert str(raised.value) == str(alone.value)
        # a bad field of an earlier record comes first, and so does one
        # that its own record holds before the samples
        for at, key in ((0, "classification"), (1, "status")):
            broken = copy.deepcopy(obj)
            broken["records"][at][key] = "maybe"
            path.write_text(json.dumps(broken))
            with pytest.raises(SchemaError, match=f"^{key!r} must be a JSON string naming a"):
                pipeline.load_manifest(path)


def test_overflowing_entry_is_an_error_and_its_neighbour_keeps_its_verdict(tmp_path):
    # Finite entries whose products overflow: the Choi eigenvalue, TP residual
    # and singular values come out NaN, and NaN must fail the checks quietly.
    # A real entry overflows to inf; a complex one to inf - inf = NaN, on
    # which the batched LAPACK calls raise.
    good = kraus_dict(np.eye(2)[None])
    alone = _classify(tmp_path, [good], "good.json")
    for big in ([1e200, 0], [1e200, 1e200]):
        overflow = {"d": 2, "K": 1, "kraus": [[[big, [0, 0]], [[0, 0], [1, 0]]]]}
        got = _classify(tmp_path, [overflow, good], "overflow.json")
        assert got[0]["classification"] is None and "rank" not in got[0]
        assert got[0]["error"].startswith("SchemaError: not completely positive: min Choi eigenvalue nan")
        assert got[1] == {**alone[0], "source": "[1]"}
        assert got[1]["classification"] == "unitary" and got[1]["error"] is None


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6, 1e9])
def test_a_scaled_non_tp_set_is_not_trace_preserving_rather_than_not_cp(tmp_path, scale):
    # K = 2 linearly dependent operators: the Gram matrix has a zero
    # eigenvalue whose roundoff grows with the entries' scale (-1.5e3 at
    # 1e9), and the CP floor is compared relative to the largest eigenvalue.
    rng = np.random.default_rng(63)
    a = rng.normal(size=(8, 2, 2)) + 1j * rng.normal(size=(8, 2, 2))
    c = rng.normal(size=8) + 1j * rng.normal(size=8)
    sets = np.stack([a, c[:, None, None] * a], axis=1)
    got = _classify(tmp_path, [kraus_dict(scale * m) for m in sets])
    assert all(entry["error"].startswith("NotTracePreserving: ") for entry in got)
    assert min(entry["choi_min_eigenvalue"] for entry in got) < 0.0


def test_nan_tp_residual_is_not_a_channel():
    # The guard a sweep record's samples pass through in the pipeline.
    test = rank_test(np.eye(2, dtype=complex)[None, None])
    test = dataclasses.replace(test, tp_residual=np.array([np.nan]))
    with pytest.raises(NotTracePreserving):
        test.check_channels(0)


@pytest.fixture(scope="module")
def s3_sweep():
    return run_enumeration("S3", None, 3, nonunitary_only=True)


@pytest.mark.parametrize("factor, fails", [(2.0, True), (0.5, False)])
def test_the_recorded_tp_tolerance_is_the_one_applied(tmp_path, s3_sweep, factor, fails):
    # A unitary scaled by s has TP residual sqrt(d) (s^2 - 1): set it to
    # ``factor`` times the TP tolerance the sweep's manifest records.
    tol, d = s3_sweep.tolerances["tp"], 3
    stack = np.sqrt(1 + factor * tol / np.sqrt(d)) * random_unitary(np.random.default_rng(5), d)[None, None]
    assert tp_residuals(stack)[0] == pytest.approx(factor * tol, rel=1e-6)
    test = rank_test(stack)
    (entry,) = _classify(tmp_path, [kraus_dict(stack[0])])
    if fails:
        with pytest.raises(NotTracePreserving):
            test.check_channels(0)
        assert entry["error"].startswith("NotTracePreserving: ") and entry["classification"] is None
    else:
        test.check_channels(0)
        assert test.rank[0] == 1
        assert entry["error"] is None and entry["classification"] == "unitary"


def _transported(manifest):
    """Whether each record of a finite sweep is transported from its class
    representative rather than solved."""
    classes = LabelClasses(props(manifest.group, manifest.kind, manifest.d).group)
    return [
        classes.representative((r.omega_index, r.d1_label.parts, r.d2_label.parts))[1] is not None
        for r in manifest.records
    ]


def test_one_non_tp_sample_fails_a_solved_record(monkeypatch, s3_sweep):
    def second_solution_doubled(*args, **kwargs):
        report = solve_tp(*args, **kwargs)
        if len(report.solutions) < 2:
            return report
        solutions = list(report.solutions)
        solutions[1] = 2.0 * np.asarray(solutions[1])
        return dataclasses.replace(report, solutions=solutions)

    monkeypatch.setattr(pipeline, "solve_tp", second_solution_doubled)
    manifest = run_enumeration("S3", None, 3, nonunitary_only=True)
    failed = 0
    for r, ref, moved in zip(manifest.records, s3_sweep.records, _transported(s3_sweep)):
        if ref.status == "channel_found" and len(ref.kraus_samples) >= 2:
            # a transported member copies its representative's outcome
            assert r.status == "solver_failed" and r.classification == "not_applicable"
            assert r.error.startswith("NotTracePreserving: trace-preservation residual")
            assert not r.kraus_samples and not r.residuals
            failed += not moved
        else:
            assert record_dict(r, manifest) == record_dict(ref, s3_sweep)
    assert failed > 0


def test_one_non_tp_sample_makes_a_transported_record_an_error(monkeypatch, s3_sweep):
    transport = classes_module.LabelClasses.transport

    def second_sample_doubled(self, stack, rep, move):
        moved = transport(self, stack, rep, move).copy()
        moved[1:2] *= 2.0
        return moved

    monkeypatch.setattr(classes_module.LabelClasses, "transport", second_sample_doubled)
    manifest = run_enumeration("S3", None, 3, nonunitary_only=True)
    broken = 0
    for r, ref, moved in zip(manifest.records, s3_sweep.records, _transported(s3_sweep)):
        if moved and ref.status == "channel_found" and len(ref.kraus_samples) >= 2:
            assert r.status == "error" and r.n_params == ref.n_params
            assert r.error.startswith("transport failed: NotTracePreserving: trace-preservation residual")
            assert not r.kraus_samples and r.classification == "not_applicable" and not r.residuals
            broken += 1
        else:
            assert record_dict(r, manifest) == record_dict(ref, s3_sweep)
    assert broken > 0


@pytest.mark.parametrize("failure", ["raises", "not trace preserving"])
def test_a_failing_member_leaves_its_classmates_alone(monkeypatch, failure):
    # D5 d=4*: the members of one class share one rank test; break one
    # member's transport and every other record must stay as it was.
    reference = run_enumeration("D5", None, 4, nonunitary_only=True)
    classes = LabelClasses(props("D5", "discrete", 4).group)
    found = collections.defaultdict(list)  # representative -> its transported channel_found records
    for r in reference.records:
        head, move = classes.representative((r.omega_index, r.d1_label.parts, r.d2_label.parts))
        if move is not None and r.status == "channel_found":
            found[head].append((r, move))
    head, members = max(found.items(), key=lambda item: len(item[1]))
    assert len(members) >= 3
    victim, victim_move = members[len(members) // 2]
    transport = classes_module.LabelClasses.transport

    def broken(self, stack, rep, move):
        moved = transport(self, stack, rep, move)
        if (rep, move) != (head, victim_move):
            return moved
        if failure == "raises":
            raise RuntimeError("no intertwiner")
        return 2.0 * moved

    monkeypatch.setattr(classes_module.LabelClasses, "transport", broken)
    manifest = run_enumeration("D5", None, 4, nonunitary_only=True)
    for r, ref in zip(manifest.records, reference.records):
        if ref is victim:
            reason = "RuntimeError: no intertwiner" if failure == "raises" else "NotTracePreserving"
            assert r.status == "error" and r.error.startswith(f"transport failed: {reason}")
            assert not r.kraus_samples and r.classification == "not_applicable" and not r.residuals
        else:
            assert record_dict(r, manifest) == record_dict(ref, reference)


def _class_of(classes, r):
    """The representative instance of a record's class: the record's own
    instance on a Lie sweep (``classes`` None)."""
    inst = (r.omega_index, r.d1_label.parts, r.d2_label.parts)
    return inst if classes is None else classes.representative(inst)[0]


@pytest.mark.parametrize("name,d,nonunitary_only,failed", [("SO3", 3, False, 2), ("S3", 3, True, 4)])
def test_non_covariant_solved_samples_fail_their_class(monkeypatch, name, d, nonunitary_only, failed):
    # U A_k keeps trace preservation and every product A_k^dag A_l, but
    # breaks covariance unless U commutes with the representation on the rows.
    reference = run_enumeration(name, None, d, nonunitary_only=nonunitary_only)
    spec = props(name, reference.kind, d).group
    classes = LabelClasses(spec) if reference.kind == "discrete" else None
    by_instance = {_class_of(None, r): r for r in reference.records}
    U = random_unitary(np.random.default_rng(17), d)
    kraus_at = KernelFamily.kraus_at
    monkeypatch.setattr(KernelFamily, "kraus_at", lambda self, coeffs: U @ kraus_at(self, coeffs))
    manifest = run_enumeration(name, None, d, nonunitary_only=nonunitary_only)
    broken = 0
    for r, ref in zip(manifest.records, reference.records):
        if ref.status != "channel_found":
            assert record_dict(r, manifest) == record_dict(ref, reference)
            continue
        head = by_instance[_class_of(classes, ref)]
        reps = [materialize(spec, lab) for lab in (head.d1_label, head.d2_label)]
        samples = U @ np.stack([s.matrices for s in head.kraus_samples])
        covariance = covariance_residual(samples, *reps, spec.irrep_by_index(head.omega_index), reference.kind).max()
        if covariance <= 1e-8:  # U commutes with the representation on the rows
            assert r.status == "channel_found" and r.classification == ref.classification
            continue
        # the representative fails, and every member copies its outcome
        assert r.status == "solver_failed" and r.n_params == ref.n_params, r.error
        assert r.error.startswith("GcecError: covariance residual ") and r.error.endswith(" exceeds 1e-08")
        assert float(r.error.split()[3]) == pytest.approx(covariance, rel=1e-3)
        assert not r.kraus_samples and r.classification == "not_applicable" and not r.residuals
        broken += 1
    assert broken == failed


@pytest.mark.parametrize("name,d,nonunitary_only,calls", [("D5", 4, True, 2), ("SO3", 7, False, 4)])
def test_one_rank_test_per_omega(monkeypatch, name, d, nonunitary_only, calls):
    # every sample the sweep emits under one channel label, solved or moved
    # and across label classes, shares one rank test
    counted = []

    def counting(stack, tol_rank, spins=None):
        counted.append((len(stack), stack.shape[1], spins is None))
        return rank_test(stack, tol_rank, spins=spins)

    monkeypatch.setattr(pipeline, "test_extreme", counting)
    manifest = run_enumeration(name, None, d, seed=7, nonunitary_only=nonunitary_only)
    found = [r for r in manifest.records if r.status == "channel_found"]
    omegas = sorted({r.omega_index for r in found})
    assert len(counted) == len(omegas) == calls
    spec = props(name, manifest.kind, d).group
    assert sorted(K for _, K, _ in counted) == sorted(spec.irrep_by_index(om).dim for om in omegas)
    assert [svd for *_, svd in counted] == [manifest.kind == "discrete"] * calls  # Lie labels take the spin path
    assert sum(n for n, *_ in counted) == sum(len(r.kraus_samples) for r in found)


@pytest.mark.parametrize("name,d,nonunitary_only", [("D5", 4, True), ("Z4", 3, False), ("A4", 4, True)])
def test_stacked_transport_equals_moving_each_sample_alone(name, d, nonunitary_only):
    manifest = run_enumeration(name, None, d, nonunitary_only=nonunitary_only)
    classes = LabelClasses(props(name, "discrete", d).group)
    by_instance = {(r.omega_index, r.d1_label.parts, r.d2_label.parts): r for r in manifest.records}
    checked = 0
    for inst, r in by_instance.items():
        head, move = classes.representative(inst)
        if move is None or r.status != "channel_found":
            continue
        stack = np.stack([s.matrices for s in by_instance[head].kraus_samples])
        moved = classes.transport(stack, head, move)
        # the per-set reference: A'_j = sum_k conj(Q_kj) R^dag B_k P
        omega, parts1, parts2 = head
        P = classes.placement(parts1, move.s, move.conj, move.aut)
        R = classes.placement(parts2, move.t, move.conj, move.aut)
        Q = classes.placement((omega,), move.u, move.conj, move.aut)
        for sample, stacked, stored in zip(stack, moved, r.kraus_samples):
            B = sample.conj() if move.conj else sample
            alone = np.einsum("kj,kab->jab", Q.conj(), R.conj().T @ B @ P)
            assert stacked.tobytes() == alone.tobytes() == classes.transport(sample[None], head, move)[0].tobytes()
            assert stacked.tobytes() == stored.matrices.tobytes()
        checked += 1
    assert checked > 0


def test_record_residuals_equal_the_per_sample_loop(s3_sweep):
    # A record's residuals come from one stack of its samples; each must
    # equal the loop over the samples bit for bit ("tp" included, which
    # reuses the rank test's TP residuals, solved and transported alike).
    spec = props(s3_sweep.group, s3_sweep.kind, s3_sweep.d).group
    checked = 0
    for r in s3_sweep.records:
        if r.status != "channel_found":
            continue
        D1, D2 = materialize(spec, r.d1_label), materialize(spec, r.d2_label)
        omega = spec.irrep_by_index(r.omega_index)
        tests = [rank_test(s.matrices[None]) for s in r.kraus_samples]
        assert r.residuals["rank_sigma_min"] == min(float(t.singular_values[0, -1]) for t in tests)
        assert r.residuals["covariance"] == max(
            float(covariance_residual(s.matrices, D1, D2, omega, "discrete")) for s in r.kraus_samples
        )
        assert r.residuals["tp"] == max(tp_residuals(s.matrices[None])[0] for s in r.kraus_samples)
        checked += len(r.kraus_samples) > 1
    assert checked > 0
