"""Trace-preservation solving in closed form: existence, vertices, samples."""

import hashlib
import json

import numpy as np
import pytest
from scipy.optimize import linprog

from gcec import extremality
from gcec.errors import GcecError, ReducibleInput
from gcec.groups import infer_kind, props
from gcec.channels import tp_residuals
from gcec.kernels import build_discrete_system, build_lie_system, joint_nullspace, leading_entries
from gcec import pipeline
from gcec.pipeline import run_enumeration
from gcec.reps import Rep, enumerate_reps, make_rep_label, materialize, omega_candidates
import gcec.tp as tp
from gcec.tp import solve_tp

from fixtures import s3_qutrit_family
from oracles import random_unitary


def _family(name, kind, d, omega_index, parts1, parts2):
    spec = props(name, kind, d).group
    D1 = materialize(spec, make_rep_label(spec, parts1))
    D2 = materialize(spec, make_rep_label(spec, parts2))
    build = build_discrete_system if kind == "discrete" else build_lie_system
    system = build(D1, D2, spec.irrep_by_index(omega_index))
    return joint_nullspace(system)


def _tp_residual(c, family):
    return tp_residuals(family.kraus_at(c)[None])[0]


def _xi(family, c):
    kraus = family.kraus_at(c)
    return sum(a.conj().T @ a for a in kraus)


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(tp, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(tp, name, counted)
    return calls


def _vertices(family, tol_rank=extremality.DEFAULT_TOL_RANK):
    """The moduli vertices of a multiplicity-free family, one per row."""
    return tp._moduli(family, tp._irreps(family), tol_rank)[0]


def _cost(family, vertices):
    """t_1 + 2 t_2 + ... + n t_n of each vertex, t_j = |c_j|^2 with the
    coordinates ordered by their basis column's leading entry.  A vertex's
    moduli are the integers dim rho, so the costs are rounded to them, and
    equal costs tie exactly (a tie goes to the first vertex)."""
    leads = leading_entries(family.basis)[0]
    order = sorted(range(family.n_params), key=lambda j: (leads[j], j))
    return np.rint(np.abs(vertices[:, order]) ** 2) @ np.arange(1.0, family.n_params + 1.0)


@pytest.mark.parametrize("name,d", [("SO3", 7), ("SU2", 5), ("S3", 5), ("D5", 4)])
def test_xi_splits_into_one_gram_matrix_per_input_irrep(name, d):
    # Xi(c) = (+)_rho (C_rho^dag C_rho / dim rho) (x) 1, where C_rho holds
    # the coefficients of rho's copies (columns) over the (row part, kernel
    # vector) rows that the layout records.
    kind = infer_kind(name)
    spec = props(name, kind, d).group
    build = build_discrete_system if kind == "discrete" else build_lie_system
    reps_ = [materialize(spec, lab) for lab in enumerate_reps(spec, d)]
    rng = np.random.default_rng(41)
    cache, checked = {}, 0
    for omega in omega_candidates(spec, d):
        for D1 in reps_:
            for D2 in reps_:
                family = joint_nullspace(build(D1, D2, omega), cache)
                if family.n_params == 0:
                    continue
                assert family.input_defect is None
                c = rng.standard_normal(family.n_params) + 1j * rng.standard_normal(family.n_params)
                expected = np.zeros((d, d), dtype=complex)
                for a, part_a in enumerate(family.inputs):
                    for b, part_b in enumerate(family.inputs):
                        if part_a.content != part_b.content:
                            continue
                        rows_a, rows_b = (family.layout[family.layout[:, 1] == j][:, [0, 2]] for j in (a, b))
                        assert np.array_equal(rows_a, rows_b)  # the copies share their rows
                        gram = np.vdot(c[family.layout[:, 1] == a], c[family.layout[:, 1] == b])
                        size = part_a.index.size
                        expected[np.ix_(part_a.index, part_b.index)] = gram / size * np.eye(size)
                assert np.abs(_xi(family, c) - expected).max() <= 1e-12 * max(1.0, np.abs(c).max() ** 2)
                checked += 1
    assert checked > 50


def test_densely_rotated_input_has_no_closed_form():
    # S3 1+2 rotated by a dense unitary is one invariant part holding two
    # irreps: the kernel is still right, but TP has no closed form there.
    spec = props("S3", "discrete", 3).group
    rep = materialize(spec, make_rep_label(spec, (0, 2)))
    rng = np.random.default_rng(21)
    D1, D2 = (
        Rep(label=rep.label, generator_matrices=tuple(u @ g @ u.conj().T for g in rep.generator_matrices))
        for u in (random_unitary(rng, 3), random_unitary(rng, 3))
    )
    family = joint_nullspace(build_discrete_system(D1, D2, spec.irrep_by_index(2)))
    assert family.n_params == 3
    assert family.input_defect == "input part at indices [0, 1, 2] is reducible"
    with pytest.raises(ReducibleInput, match="reducible") as raised:
        solve_tp(family)
    assert isinstance(raised.value, GcecError)
    # the catalog form of the same instance has two irreducible input parts
    plain = joint_nullspace(build_discrete_system(rep, rep, spec.irrep_by_index(2)))
    assert plain.input_defect is None and len(plain.inputs) == 2


def test_empty_family_reports_no_solution():
    family = _family("SU2", "lie", 2, 1, (1,), (1,))
    assert family.n_params == 0
    report = solve_tp(family)
    assert report.status == "no_solution"
    assert "empty family" in report.detail


def test_rank_deficient_certificate():
    # mixed Z2 rep pair: every covariant map factors through a proper
    # subspace, so the count of rows for the twice-repeated input irrep q0
    # falls short of its multiplicity
    family = _family("Z2", "discrete", 2, 0, (0, 0), (0, 1))
    assert family.n_params == 2
    ((dim, C),) = tp._irreps(family)
    assert dim == 1 and C.shape == (1, 2)
    report = solve_tp(family)
    assert report.status == "no_solution"
    assert "rank deficient" in report.detail
    rng = np.random.default_rng(3)
    c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert np.linalg.matrix_rank(family.kraus_at(c).reshape(-1, 2)) == 1


def test_coupled_family_takes_haar_samples_only(monkeypatch):
    # Z2 q0+q0 under q0: the input irrep q0 appears twice and has two rows,
    # so C is a 2 x 2 unitary; no moduli polytope and no canonical vertex
    family = _family("Z2", "discrete", 2, 0, (0, 0), (0, 0))
    ((dim, C),) = tp._irreps(family)
    assert (dim, C.shape) == (1, (2, 2))
    calls = _count_calls(monkeypatch, "_moduli")
    report = solve_tp(family, seed=3)
    assert report.status == "solved" and not calls and report.moduli_constraints == []
    assert len(report.solutions) == 1
    for c in report.solutions:
        assert _tp_residual(c, family) <= 1e-14
        assert np.allclose(c[C].conj().T @ c[C], np.eye(2), atol=1e-14)


def test_one_point_polytope_needs_one_lp(monkeypatch):
    # one input irrep with one row: the polytope is one vertex, found by one
    # call of the vertex enumeration
    family = _family("SO3", "lie", 3, 1, (1,), (1,))
    calls = _count_calls(monkeypatch, "_moduli")
    report = solve_tp(family)
    assert report.status == "solved"
    assert len(calls) == 1 and len(_vertices(family)) == 1


BENCH_SWEEPS = [("SO3", 7, False), ("SU2", 5, False), ("Z2", 2, False), ("Z3", 1, False),
                ("S3", 5, True), ("A4", 4, True), ("D5", 4, True), ("Z4", 3, False)]


def test_vertices_match_highs_on_every_bench_polytope(monkeypatch):
    # HiGHS is the reference: over {t >= 0 : R t = 1}, with R read off Xi at
    # each basis vector (R[p, j] = Xi(e_j)[p, p]), the least cost over the
    # vertices is the LP optimum, for every moduli polytope the bench
    # sweeps reach.
    calls = _count_calls(monkeypatch, "_moduli")
    for group, d, nonunitary_only in BENCH_SWEEPS:
        run_enumeration(group, None, d, nonunitary_only=nonunitary_only)
    families = [family for family, _, _ in calls]
    assert len(families) > 50
    rng = np.random.default_rng(37)
    for family in families:
        vertices = _vertices(family)
        n = family.n_params
        R = np.real(np.array([np.diag(_xi(family, e)) for e in np.eye(n)])).T
        t = np.abs(vertices) ** 2
        assert np.abs(t @ R.T - 1.0).max() <= 1e-12
        for _ in range(6):
            cost = rng.uniform(0.1, 1.0, n)
            lp = linprog(cost, A_eq=R, b_eq=np.ones(len(R)), bounds=(0.0, None), method="highs")
            assert lp.status == 0
            assert abs((t @ cost).min() - lp.fun) <= 1e-9


@pytest.fixture(scope="module")
def bench_seed7():
    """The bench sweeps at seed 7, and the (family, report) of every
    ``solve_tp`` call they made."""
    solved = []

    def recorded(family, *args, **kwargs):
        report = solve_tp(family, *args, **kwargs)
        solved.append((family, report))
        return report

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "solve_tp", recorded)
        manifests = [run_enumeration(g, None, d, nonunitary_only=nu, seed=7) for g, d, nu in BENCH_SWEEPS]
    return manifests, solved


def test_a_found_record_stores_the_samples_that_decide_it(bench_seed7):
    # a free-phase family stores its canonical vertex (phases 0, sqrt(dim rho)
    # on one coordinate of each input irrep rho) and then one Haar sample; a
    # coupled family stores one Haar sample
    manifests, solved = bench_seed7
    solved = [(family, report) for family, report in solved if report.status == "solved"]
    for family, report in solved:
        if not report.moduli_constraints:
            assert len(report.solutions) == 1
            continue
        first = report.solutions[0]
        assert len(report.solutions) <= 2 and np.count_nonzero(first) == len(tp._irreps(family))
        for dim, C in tp._irreps(family):
            (at,) = np.flatnonzero(first[C[:, 0]])
            assert abs(first[C[at, 0]] - np.sqrt(dim)) <= 1e-12
    assert {bool(report.moduli_constraints) for _, report in solved} == {True, False}
    found = [r for m in manifests for r in m.records if r.status == "channel_found"]
    assert all(len(r.kraus_samples) <= 2 for r in found if r.moduli_constraints)
    assert all(len(r.kraus_samples) == 1 for r in found if not r.moduli_constraints)
    # the classification rule: extreme iff every stored sample passes
    seen = set()
    for r in found:
        if r.classification == "unitary":
            continue
        passes = extremality.test_extreme(np.stack([s.matrices for s in r.kraus_samples])).extreme
        assert r.classification == ("extreme" if passes.all() else "quasi_extreme")
        seen.add(r.classification)
    assert seen == {"extreme", "quasi_extreme"}


# sha256 of json.dumps of each sweep's [d1_label, d2_label, omega_index,
# n_params, status, classification] rows, in record order, at seed 7
BENCH_ANSWERS = {
    "SO3-7": "488a0ce4463847a393f58e6e9f46df8663c945b0a7ce5f84c9c3c709786c4a38",
    "SU2-5": "081a02b33260a2fa8b5682fe19c4c9ae4d83e47c98069b8bee7b28ef4a4a4e25",
    "Z2-2": "52c62a0e79085371b2fd9266d5698a664e89b5ad678a410c47c5e656d89b1d0f",
    "Z3-1": "19ef1320b103d187d42c22ef8112d213b2091898da314e8c768ec32a59435a91",
    "S3-5": "6ac1b153b3b55e30a82523c10ff3209fd2235a88c609e59724ecc6f2d47b8d06",
    "A4-4": "893edd394b1456d748b6dbc864660b5c2ae7d06eb7af5b841354585bcd4da7be",
    "D5-4": "dfcd6db8e008aeff2368b51029572031e5a4c20b8ad0c7d5bc29f10e4f4154d0",
    "Z4-3": "c3b7ae0fe652cbb77a7df1f9f08aebaca4190e99a64bfcbb34d129f474e082a4",
}


def test_bench_sweep_answers_are_pinned(bench_seed7):
    # a change to TP solving or to the stored samples may move bytes, never an answer
    answers = {}
    for (group, d, _), manifest in zip(BENCH_SWEEPS, bench_seed7[0]):
        rows = [
            [r.d1_label.text, r.d2_label.text, r.omega_index, r.n_params, r.status, r.classification]
            for r in manifest.records
        ]
        answers[f"{group}-{d}"] = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert answers == BENCH_ANSWERS


def test_rows_equal_up_to_roundoff_span_a_segment():
    # SO3 d=9, 1+3+5 -> 9 under the 7-dimensional irrep: the 9-dimensional
    # input irrep has two rows, so |u1|^2 + |u2|^2 = 9 (every R entry 1/9)
    # is a segment with two vertices, and the record stores its canonical
    # vertex and one Haar sample.
    family = _family("SO3", "lie", 9, 3, (0, 1, 2), (4,))
    report = solve_tp(family)
    assert report.moduli_constraints == ["0.111111|u1|^2 + 0.111111|u2|^2 = 1"]
    assert np.allclose(np.abs(_vertices(family)) ** 2, [[9.0, 0.0], [0.0, 9.0]], atol=1e-12)
    manifest = run_enumeration("SO3", "lie", 9, reps=["1+3+5", "9"], seed=7)
    (record,) = [
        r for r in manifest.records if (r.d1_label.text, r.d2_label.text, r.omega_index) == ("1+3+5", "9", 3)
    ]
    assert record.status == "channel_found" and record.classification == "extreme"
    assert len(record.kraus_samples) == 2


def test_one_point_one_modulus_family_is_not_mixed():
    # the only freedom is one phase: every Haar sample gauges back to the
    # canonical vertex, so that vertex is the one solution
    family = _family("SO3", "lie", 3, 1, (1,), (1,))
    assert family.n_params == 1
    report = solve_tp(family, seed=4)
    assert report.detail == "closed form"
    assert len(report.solutions) == 1
    assert report.solutions[0].tobytes() == _vertices(family)[0].tobytes()


def test_one_point_two_moduli_family_is_still_mixed():
    # Z2 q0+q1 under q0: A = diag(a, b), Xi = diag(|a|^2, |b|^2), so the
    # polytope is the point |a| = |b| = 1 and the relative phase of a and b
    # stays free.
    family = _family("Z2", "discrete", 2, 0, (0, 1), (0, 1))
    assert family.n_params == 2
    report = solve_tp(family, seed=4)
    (vertex,) = _vertices(family)
    assert np.count_nonzero(vertex) == 2
    assert report.moduli_constraints == ["1|u1|^2 = 1", "1|u2|^2 = 1"]
    assert len(report.solutions) == 2
    phases = [np.angle(c[1] / c[0]) for c in report.solutions]
    assert len(set(np.round(phases, 6))) == 2
    for c in report.solutions:
        assert _tp_residual(c, family) <= 1e-14


def test_s3_family_solves_on_linear_path():
    # multiplicity-free input: linear moduli constraints and a vertex sample
    family = _family("S3", "discrete", 3, 2, (0, 2), (0, 2))
    report = solve_tp(family, seed=0)
    assert report.status == "solved"
    assert len(report.moduli_constraints) == 2
    assert report.detail == "closed form"
    assert len(report.solutions) == 2
    for c in report.solutions:
        assert _tp_residual(c, family) <= 1e-10


def test_s3_solutions_match_closed_form_constraints():
    family = _family("S3", "discrete", 3, 2, (0, 2), (0, 2))
    report = solve_tp(family, seed=1)
    for c in report.solutions:
        a1 = family.kraus_at(c)[0]
        alpha, beta, gamma = a1[0, 1], a1[1, 0], a1[1, 1]
        assert abs(2 * abs(beta) ** 2 - 1) <= 1e-9
        assert abs(abs(alpha) ** 2 + 2 * abs(gamma) ** 2 - 1) <= 1e-9
    # conversely, closed-form points satisfying the constraints are TP members
    rng = np.random.default_rng(32)
    for _ in range(5):
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        s = rng.uniform(0, 1)
        alpha = np.sqrt(s) * phases[0]
        beta = np.sqrt(0.5) * phases[1]
        gamma = np.sqrt((1 - s) / 2) * phases[2]
        c = family.basis.conj().T @ np.asarray(s3_qutrit_family(alpha, beta, gamma)).reshape(-1)
        assert _tp_residual(c, family) <= 1e-10


def test_so3_moduli_are_forced():
    for d, om, slot_sq in [(3, 1, 0.5), (5, 2, 2.0 / 7.0)]:
        family = _family("SO3", "lie", d, om, (om,), (om,))
        report = solve_tp(family)
        assert report.status == "solved"
        kraus = family.kraus_at(report.solutions[0])
        # the middle Kraus operator is diagonal with corner weight |a|^2
        assert abs(abs(kraus[len(kraus) // 2][0, 0]) ** 2 - slot_sq) <= 1e-10


def test_solve_is_deterministic_for_fixed_seed():
    family = _family("S3", "discrete", 3, 2, (0, 2), (0, 2))
    first = solve_tp(family, seed=9)
    second = solve_tp(family, seed=9)
    assert len(first.solutions) == len(second.solutions)
    for a, b in zip(first.solutions, second.solutions):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("omega", [2, 3])
def test_canonical_solution_sits_at_a_vertex_that_fails_the_rank_test(omega):
    # D5 d=4, 2_1+2_2 -> 2_1+2_2 under 2_1 and under 2_2: the automorphism
    # swapping 2_1 and 2_2 maps one family onto the other, and each has two
    # vertices, one failing the rank test.  Under 2_1 the least-cost vertex
    # is the failing one, under 2_2 the passing one; both canonical
    # solutions sit at the failing vertex.
    family = _family("D5", "discrete", 4, omega, (2, 3), (2, 3))
    report = solve_tp(family)
    vertices = _vertices(family)
    points = np.stack([family.kraus_at(v) for v in vertices])
    fails = extremality.test_extreme(points).rank != family.K**2
    least = np.argmin(_cost(family, vertices))
    assert len(vertices) == 2 and fails.sum() == 1 and fails[least] == (omega == 2)
    assert not extremality.test_extreme(family.kraus_at(report.solutions[0])[None]).is_extreme
    assert np.allclose(report.solutions[0], vertices[fails][0])


def test_canonical_vertex_follows_tol_rank():
    # D5 d=4, 1+1'+2_2 -> 2_1+2_1 under 2_1: eight vertices whose product
    # stacks have singular-value ratios 1, 0.71 or ~1e-16.  At the default
    # tolerance only the ~1e-16 ones fail; at 0.75 the 0.71 ones fail too,
    # and a cheaper one of them becomes the canonical vertex.
    family = _family("D5", "discrete", 4, 2, (0, 1, 3), (2, 2))
    vertices = _vertices(family)
    assert len(vertices) == 8
    points = np.stack([family.kraus_at(v) for v in vertices])
    cost = _cost(family, vertices)
    chosen = []
    for tol_rank in (extremality.DEFAULT_TOL_RANK, 0.75):
        fails = extremality.test_extreme(points, tol_rank=tol_rank).rank != family.K**2
        canonical = vertices[np.argmin(np.where(fails, cost, np.inf))]
        assert np.allclose(solve_tp(family, tol_rank=tol_rank).solutions[0], canonical)
        chosen.append(canonical)
    assert not np.array_equal(*chosen)
