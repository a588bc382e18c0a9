"""End-to-end gate: one test per headline guarantee of the pipeline.

Each test pins a catalog -> covariance kernel -> trace preservation ->
extremality chain on a named instance, with frozen constants and a time
budget.  Budgets read the process's CPU time (``time.process_time``), so
other processes on shared cores do not stretch them; the time of every
thread counts, so a multithreaded BLAS can read up to its thread count
times the wall time.  The strict-xfail
twins record reference tallies that the construction disproves; if a code
change ever makes one pass, the xfail turns into a hard failure and forces
a second look.
"""

import time

import numpy as np
import pytest

from gcec.channels import KrausSet, choi, tp_residuals
from gcec.groups import Irrep, props
from gcec.kernels import (
    build_discrete_system,
    build_lie_system,
    covariance_residual,
    joint_nullspace,
)
from gcec.pipeline import (
    load_manifest,
    manifest_to_json,
    run_enumeration,
    save_manifest,
)
from gcec.reps import enumerate_reps, make_rep_label, materialize, omega_candidates
from gcec.tp import solve_tp

from fixtures import (
    a4_gauge_bridge,
    a4_qutrit_triple,
    a4_qutrit_triple_alt_gauge,
    check_extreme,
    d5_qutrit_pair,
    kraus_set,
    s3_qutrit_family,
    so3_d5_family,
    so3_qutrit_family,
    su2_flip_family,
)
from oracles import clebsch_gordan_n_params, partitions_all, partitions_odd, random_unitary


def _family(name, kind, d, omega_index, parts1, parts2):
    spec = props(name, kind, d).group
    D1 = materialize(spec, make_rep_label(spec, parts1))
    D2 = materialize(spec, make_rep_label(spec, parts2))
    build = build_discrete_system if kind == "discrete" else build_lie_system
    omega = spec.irrep_by_index(omega_index)
    return joint_nullspace(build(D1, D2, omega)), spec, D1, D2, omega


def choi_of(ks):
    """The Choi matrix of one Kraus set."""
    return choi(ks.matrices[None])[0]


def tp_of(ks):
    """The TP residual of one Kraus set."""
    return tp_residuals(ks.matrices[None])[0]


def _projector(basis):
    return basis @ basis.conj().T


def _choi_gap(mats1, mats2):
    c1 = choi_of(kraus_set(mats1))
    c2 = choi_of(kraus_set(mats2))
    return float(np.linalg.norm(c1 - c2))


def _kernel_gap(family, matrices):
    v = np.asarray(matrices).reshape(-1)
    v = v / np.linalg.norm(v)
    return float(np.linalg.norm(v - family.basis @ (family.basis.conj().T @ v)))


@pytest.fixture(scope="module")
def z2_full():
    return run_enumeration("Z2", "discrete", 2)


@pytest.fixture(scope="module")
def s3_sweep():
    return run_enumeration("S3", "discrete", 3, nonunitary_only=True)


@pytest.fixture(scope="module")
def a4_sweep():
    return run_enumeration("A4", "discrete", 3, nonunitary_only=True)


@pytest.fixture(scope="module")
def d5_sweep():
    return run_enumeration("D5", "discrete", 3, nonunitary_only=True)


def test_binary_group_qubit_sweep_statuses_and_unitary_forms():
    started = time.process_time()
    man = run_enumeration("Z2", "discrete", 2, reps=["q0+q0", "q0+q1"])
    assert man.total_instances == 8
    by = {(r.d1_label.text, r.d2_label.text, r.omega_label): r for r in man.records}
    assert len(by) == 8

    # the matched-mixed-rep pair carries diagonal unitaries for the trivial
    # label and antidiagonal unitaries for the sign label
    diag = by[("q0+q1", "q0+q1", "q0")]
    anti = by[("q0+q1", "q0+q1", "q1")]
    assert diag.status == anti.status == "channel_found"
    assert diag.classification == anti.classification == "unitary"
    fam_d = _family("Z2", "discrete", 2, 0, (0, 1), (0, 1))[0]
    fam_a = _family("Z2", "discrete", 2, 1, (0, 1), (0, 1))[0]
    eye4 = np.eye(4)
    span_diag = eye4[:, [0, 3]]
    span_anti = eye4[:, [1, 2]]
    assert np.linalg.norm(_projector(fam_d.basis) - _projector(span_diag)) <= 1e-10
    assert np.linalg.norm(_projector(fam_a.basis) - _projector(span_anti)) <= 1e-10
    for rec, keep in ((diag, (0, 3)), (anti, (1, 2))):
        for ks in rec.kraus_samples:
            a = ks.matrices[0]
            assert np.linalg.norm(a.conj().T @ a - np.eye(2)) <= 1e-8
            off = np.delete(a.reshape(-1), keep)
            assert np.linalg.norm(off) <= 1e-10

    # trivial reps with the sign label force a zero Kraus operator
    blocked = by[("q0+q0", "q0+q0", "q1")]
    assert blocked.status == "no_cp_map" and blocked.n_params == 0

    # the four unequal-rep instances have covariant maps but no TP point
    mixed = [k for k in by if k[0] != k[1]]
    assert len(mixed) == 4
    assert all(by[k].status == "no_tp_solution" for k in mixed)

    # unconstrained instance: anything unitary works, classified as such
    free = by[("q0+q0", "q0+q0", "q0")]
    assert free.status == "channel_found" and free.classification == "unitary"
    assert man.count_found == 3
    assert time.process_time() - started < 1.0


@pytest.mark.xfail(
    strict=True,
    reason="reference tally of four found cases is off by one: the eight "
    "restricted instances split 3 found / 1 without CP map / 4 without TP points",
)
def test_binary_group_qubit_sweep_reference_found_tally():
    man = run_enumeration("Z2", "discrete", 2, reps=["q0+q0", "q0+q1"])
    assert man.count_found == 4


def test_triangle_group_qutrit_family_constraints_and_rank_drop_locus():
    started = time.process_time()
    family = _family("S3", "discrete", 3, 2, (0, 2), (0, 2))[0]
    assert family.n_params == 3

    report = solve_tp(family)
    assert report.status == "solved" and report.moduli_constraints
    # emitted moduli constraints pin exactly the closed-form pair:
    # every solver point satisfies it ...
    for c in report.solutions:
        a1 = family.kraus_at(c)[0]
        alpha, beta, gamma = a1[0, 1], a1[1, 0], a1[1, 1]
        assert abs(2 * abs(beta) ** 2 - 1) <= 1e-9
        assert abs(abs(alpha) ** 2 + 2 * abs(gamma) ** 2 - 1) <= 1e-9
    # ... and every closed-form point is trace preserving in the kernel
    rng = np.random.default_rng(5)
    for _ in range(5):
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        s = rng.uniform(0, 1)
        trio = s3_qutrit_family(
            np.sqrt(s) * phases[0],
            np.sqrt(0.5) * phases[1],
            np.sqrt((1 - s) / 2) * phases[2],
        )
        c = family.basis.conj().T @ np.asarray(trio).reshape(-1)
        assert tp_residuals(family.kraus_at(c)[None])[0] <= 1e-10

    # computed kernel coincides with the closed-form span
    cols = [np.asarray(s3_qutrit_family(*e)).reshape(-1) for e in np.eye(3)]
    q, _ = np.linalg.qr(np.column_stack(cols))
    assert np.linalg.norm(_projector(q) - _projector(family.basis)) <= 1e-9

    # the smallest product singular value is 2 | |alpha|^2 - 1/2 | at every
    # phase: rank 3 on the locus |alpha|^2 = 1/2, |gamma|^2 = 1/4, else rank 4
    for a2 in (0.5, 0.2, 0.9, 0.501):
        for _ in range(3):
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
            trio = s3_qutrit_family(
                np.sqrt(a2) * phases[0],
                np.sqrt(0.5) * phases[1],
                np.sqrt((1 - a2) / 2) * phases[2],
            )
            test = check_extreme(kraus_set(trio))
            assert abs(test.singular_values[0, -1] - 2 * abs(a2 - 0.5)) <= 1e-9
            on_locus = a2 == 0.5
            assert test.rank[0] == (3 if on_locus else 4)
            assert bool(test.extreme[0]) is not on_locus
    assert time.process_time() - started < 10.0


def test_tetrahedral_group_qutrit_instance_kernel_and_channel():
    started = time.process_time()
    family, _, D1, D2, omega = _family("A4", "discrete", 3, 3, (3,), (3,))
    # character count: the 3-dim label appears twice in 3 (x) 3*, so the
    # solution set is a continuum, not a single ray
    assert family.n_params == 2

    fix = a4_qutrit_triple()
    assert covariance_residual(fix, D1, D2, omega, "discrete") <= 1e-9
    assert _kernel_gap(family, fix) <= 1e-9
    ks = kraus_set(fix)
    assert tp_of(ks) <= 1e-10
    test = check_extreme(ks)
    assert test.extreme[0] and test.rank[0] == 9

    # the diagonal gauge bridge carries the frozen triple onto the variant
    # that circulates in print, as channels (Choi-equal)
    w = a4_gauge_bridge()
    moved = KrausSet(w @ ks.matrices @ w.conj().T)
    assert _choi_gap(moved.matrices, a4_qutrit_triple_alt_gauge()) <= 1e-12

    man = run_enumeration("A4", "discrete", 3, reps=["3"])
    rec = next(r for r in man.records if r.omega_label == "3")
    assert rec.status == "channel_found" and rec.classification == "extreme"
    assert time.process_time() - started < 10.0


@pytest.mark.xfail(
    strict=True,
    reason="reference claim of a unique covariant ray: the kernel is "
    "two-dimensional and carries genuinely inequivalent extreme channels",
)
def test_tetrahedral_group_single_ray_reference_claim():
    family = _family("A4", "discrete", 3, 3, (3,), (3,))[0]
    assert family.n_params == 1
    report = solve_tp(family)
    assert _choi_gap(family.kraus_at(report.solutions[0]), a4_qutrit_triple()) <= 1e-9


def test_pentagon_group_qutrit_instances_reduce_to_triangle_point():
    started = time.process_time()
    fix = d5_qutrit_pair()
    for omega_index, parts in ((2, (0, 2)), (3, (0, 3))):
        family, _, D1, D2, omega = _family("D5", "discrete", 3, omega_index, parts, parts)
        assert covariance_residual(fix, D1, D2, omega, "discrete") <= 1e-9
        report = solve_tp(family)
        assert report.status == "solved"
        canonical = family.kraus_at(report.solutions[0])
        assert _choi_gap(canonical, fix) <= 1e-9
        assert check_extreme(kraus_set(canonical)).is_extreme
    # the shared channel is the triangle-symmetry family at (1, 1/sqrt2, 0)
    assert _choi_gap(fix, s3_qutrit_family(1.0, 2**-0.5, 0.0)) <= 1e-9
    assert time.process_time() - started < 10.0


def test_rotation_group_spherical_families_have_forced_moduli():
    started = time.process_time()
    fam3 = _family("SO3", "lie", 3, 1, (1,), (1,))[0]
    rep3 = solve_tp(fam3)
    assert rep3.status == "solved"
    for c in rep3.solutions:
        kraus = fam3.kraus_at(c)
        # the middle (diagonal) operator carries corner weight |a|^2 = 1/2
        assert abs(abs(kraus[1][0, 0]) ** 2 - 0.5) <= 1e-10
        assert check_extreme(kraus_set(kraus)).is_extreme

    fam5 = _family("SO3", "lie", 5, 2, (2,), (2,))[0]
    rep5 = solve_tp(fam5)
    assert rep5.status == "solved"
    fix5 = so3_d5_family(np.sqrt(2.0 / 7.0))
    for c in rep5.solutions:
        kraus = fam5.kraus_at(c)
        assert abs(abs(kraus[2][0, 0]) ** 2 - 2.0 / 7.0) <= 1e-9
        assert check_extreme(kraus_set(kraus)).is_extreme
        assert _choi_gap(kraus, fix5) <= 1e-8
    assert time.process_time() - started < 30.0


def test_spin_group_flip_families_across_dimensions():
    started = time.process_time()

    # d=3: canonical moduli point is forced, closed form reproduced exactly
    fam3 = _family("SU2", "lie", 3, 1, (0, 1), (0, 1))[0]
    rep3 = solve_tp(fam3)
    assert rep3.status == "solved"
    canonical = fam3.kraus_at(rep3.solutions[0])
    assert _choi_gap(canonical, su2_flip_family(3)) <= 1e-8
    assert check_extreme(kraus_set(canonical)).is_extreme

    # d=2: the kernel is all of C^{2x2} and the TP set is the whole unitary
    # group, so no single sample is canonical; the bit flip is one member
    fam2 = _family("SU2", "lie", 2, 0, (0, 0), (0, 0))[0]
    assert fam2.n_params == 4
    rep2 = solve_tp(fam2)
    assert rep2.status == "solved"
    for c in rep2.solutions:
        a = fam2.kraus_at(c)[0]
        assert np.linalg.norm(a.conj().T @ a - np.eye(2)) <= 1e-8
    assert _kernel_gap(fam2, su2_flip_family(2)) <= 1e-10
    man2 = run_enumeration("SU2", "lie", 2, reps=["1+1"])
    rec2 = next(r for r in man2.records if r.omega_label == "1")
    assert rec2.status == "channel_found" and rec2.classification == "unitary"

    # d=4: three-dimensional kernel with a degenerate moduli plane; the
    # closed form is a member and is extreme, but no canonical point exists
    fam4, _, D1, D2, omega = _family("SU2", "lie", 4, 2, (0, 2), (0, 2))
    assert fam4.n_params == 3
    fix4 = su2_flip_family(4)
    assert covariance_residual(fix4, D1, D2, omega, "lie") <= 1e-9
    assert _kernel_gap(fam4, fix4) <= 1e-9
    assert tp_of(kraus_set(fix4)) <= 1e-12
    assert check_extreme(kraus_set(fix4)).is_extreme
    man4 = run_enumeration("SU2", "lie", 4, reps=["1+3"])
    rec4 = next(r for r in man4.records if r.omega_label == "3")
    assert rec4.status == "channel_found" and rec4.classification == "extreme"

    # even-d matched instance: the covariance system has only the zero map
    famE = _family("SU2", "lie", 2, 1, (1,), (1,))[0]
    assert famE.n_params == 0
    assert solve_tp(famE).status == "no_solution"
    assert time.process_time() - started < 30.0


@pytest.mark.xfail(
    strict=True,
    reason="reference claim of a closed-form Choi match at every dimension: "
    "at d=2 the solution set is the whole unitary group and at d=4 the "
    "canonical vertex sits in a degenerate moduli plane, so the sampled "
    "channel need not coincide with the closed form",
)
def test_spin_group_flip_family_reference_choi_match_all_dims():
    for d, omega_index, parts in ((2, 0, (0, 0)), (4, 2, (0, 2))):
        family = _family("SU2", "lie", d, omega_index, parts, parts)[0]
        report = solve_tp(family)
        canonical = family.kraus_at(report.solutions[0])
        assert _choi_gap(canonical, su2_flip_family(d)) <= 1e-8


def test_spin_group_d6_kernels_match_clebsch_gordan_within_budget():
    # all 726 instances share 216 distinct Schur blocks, factored once each
    spec = props("SU2", "lie", 6).group
    dims = {ir.index: ir.dim for ir in spec.irreps}
    reps = [materialize(spec, lab) for lab in enumerate_reps(spec, 6)]
    started = time.process_time()
    cache, counts = {}, []
    for omega in omega_candidates(spec, 6):
        for D1 in reps:
            for D2 in reps:
                family = joint_nullspace(build_lie_system(D1, D2, omega), cache=cache)
                counts.append((family.n_params, D1.label.parts, D2.label.parts, omega.index))
    elapsed = time.process_time() - started
    assert len(counts) == 726 and len(cache) == 216
    for n, p1, p2, om in counts:
        assert n == clebsch_gordan_n_params([dims[p] for p in p1], [dims[p] for p in p2], dims[om])
    assert elapsed < 10.0


def test_rotation_group_d9_sweep_matches_clebsch_gordan_within_budget():
    # weight space leaves at most K*min(r, c) unknowns per Schur block
    spec = props("SO3", "lie", 9).group
    dims = {ir.index: ir.dim for ir in spec.irreps}
    started = time.process_time()
    manifest = run_enumeration("SO3", None, 9)
    elapsed = time.process_time() - started
    assert manifest.total_instances == len(manifest.records) == 320
    for rec in manifest.records:
        expected = clebsch_gordan_n_params(
            [dims[p] for p in rec.d1_label.parts], [dims[p] for p in rec.d2_label.parts], dims[rec.omega_index]
        )
        assert rec.n_params == expected, (rec.d1_label.text, rec.d2_label.text, rec.omega_label)
    assert elapsed < 5.0


def test_found_records_store_only_their_deciding_samples():
    # a canonical vertex and one Haar sample, or one Haar sample, per found
    # record: 0.52 MB of text, where eight samples per record made 2.24 MB
    text = manifest_to_json(run_enumeration("D5", None, 4, nonunitary_only=True, seed=7))
    assert len(text.encode()) <= 750_000


def test_instance_and_representation_counts(s3_sweep, a4_sweep, d5_sweep):
    assert s3_sweep.total_instances == 36
    assert a4_sweep.total_instances == 121
    assert d5_sweep.total_instances == 128
    for name, n_reps in (("S3", 6), ("A4", 11), ("D5", 8)):
        spec = props(name, "discrete", 3).group
        assert len(enumerate_reps(spec, 3)) == n_reps
    for d in range(1, 9):
        so3 = props("SO3", "lie", d).group
        su2 = props("SU2", "lie", d).group
        assert len(enumerate_reps(so3, d)) == partitions_odd(d)
        assert len(enumerate_reps(su2, d)) == partitions_all(d)


def test_property_suite_residuals_invariances_determinism(
    z2_full, s3_sweep, a4_sweep, d5_sweep, tmp_path
):
    # every emitted sample: covariant, trace preserving, positive Choi
    for man in (z2_full, s3_sweep, a4_sweep, d5_sweep):
        spec = props(man.group, man.kind, man.d).group
        for rec in man.records:
            if not rec.kraus_samples:
                continue
            D1 = materialize(spec, rec.d1_label)
            D2 = materialize(spec, rec.d2_label)
            omega = spec.irrep_by_index(rec.omega_index)
            for ks in rec.kraus_samples:
                assert covariance_residual(list(ks.matrices), D1, D2, omega, man.kind) <= 1e-9
                assert tp_of(ks) <= 1e-10
                assert np.linalg.eigvalsh(choi_of(ks)).min() >= -1e-10

    # channel-level invariances, 20 random unitaries per fixture: mixing the
    # Kraus index leaves the Choi matrix alone, and two-sided unitary
    # transport preserves trace preservation and the extremality verdict
    rng = np.random.default_rng(0xA11CE)
    fixture_sets = [
        s3_qutrit_family(0.6, 2**-0.5, 1j * 0.32**0.5),
        a4_qutrit_triple(),
        d5_qutrit_pair(),
        so3_qutrit_family(2**-0.5),
        so3_d5_family(np.sqrt(2.0 / 7.0)),
        su2_flip_family(3),
        su2_flip_family(4),
    ]
    for mats in fixture_sets:
        ks = kraus_set(mats)
        base_verdict = check_extreme(ks).extreme[0]
        base_choi = choi_of(ks)
        for _ in range(20):
            w = random_unitary(rng, ks.K)
            mixed = kraus_set(
                [
                    sum(w[k, l] * ks.matrices[l] for l in range(ks.K))
                    for k in range(ks.K)
                ]
            )
            assert np.linalg.norm(choi_of(mixed) - base_choi) <= 1e-9
            assert check_extreme(mixed).extreme[0] == base_verdict
            moved = KrausSet(random_unitary(rng, ks.d) @ ks.matrices @ random_unitary(rng, ks.d))
            assert tp_of(moved) <= 1e-9
            assert check_extreme(moved).extreme[0] == base_verdict

    # kernel-level invariance: conjugating the channel label moves the kernel
    # by the matching block rotation, discrete and Lie alike
    for name, kind, d, omega_index, parts, block in (
        ("S3", "discrete", 3, 2, (0, 2), lambda u: np.kron(u, np.eye(9))),
        ("SU2", "lie", 3, 1, (0, 1), lambda u: np.kron(u.conj(), np.eye(9))),
    ):
        family, _, D1, D2, omega = _family(name, kind, d, omega_index, parts, parts)
        build = build_discrete_system if kind == "discrete" else build_lie_system
        for _ in range(20):
            u = random_unitary(rng, omega.dim)
            moved_omega = Irrep(
                index=omega.index,
                dim=omega.dim,
                label=omega.label,
                generator_matrices=tuple(
                    u @ g @ u.conj().T for g in omega.generator_matrices
                ),
            )
            basis2 = joint_nullspace(build(D1, D2, moved_omega)).basis
            assert (
                np.linalg.norm(
                    _projector(basis2) - _projector(block(u) @ family.basis)
                )
                <= 1e-9
            )

    # byte-identical manifests for equal inputs
    assert manifest_to_json(run_enumeration("Z2", "discrete", 2)) == manifest_to_json(z2_full)
    assert manifest_to_json(
        run_enumeration("S3", "discrete", 3, nonunitary_only=True)
    ) == manifest_to_json(s3_sweep)

    # write-read-verify loop
    path = tmp_path / "manifest.json"
    save_manifest(a4_sweep, path)
    loaded = load_manifest(path)
    assert manifest_to_json(loaded) == manifest_to_json(a4_sweep)
    for rec in loaded.records:
        for ks in rec.kraus_samples:
            assert tp_of(ks) <= 1e-9
