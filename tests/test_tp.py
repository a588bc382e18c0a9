"""Trace-preservation solving: certificates, linear path, fallback."""

import time

import numpy as np
import pytest
from scipy.optimize import linprog

from gcec import extremality
from gcec.groups import props
from gcec.channels import tp_residuals
from gcec.kernels import KernelFamily, build_discrete_system, build_lie_system, joint_nullspace
from gcec.pipeline import run_enumeration
from gcec.reps import make_rep_label, materialize
import gcec.tp as tp
from gcec.tp import _offdiag_vanishes, _vertices, solve_tp, xi_forms

from fixtures import s3_qutrit_family


def _family(name, kind, d, omega_index, parts1, parts2):
    spec = props(name, kind, d).group
    D1 = materialize(spec, make_rep_label(spec, parts1))
    D2 = materialize(spec, make_rep_label(spec, parts2))
    build = build_discrete_system if kind == "discrete" else build_lie_system
    system = build(D1, D2, spec.irrep_by_index(omega_index))
    return joint_nullspace(system, 1e-10)


def _synthetic(columns, K, d):
    return KernelFamily(basis=np.column_stack(columns), K=K, d=d)


def _tp_residual(c, family):
    return tp_residuals(family.kraus_at(c)[None])[0]


def _max_residual(report, family):
    return max(_tp_residual(c, family) for c in report.solutions)


def test_xi_is_quadratic_and_hermitian():
    family = _family("SO3", "lie", 3, 1, (1,), (1,))
    forms = xi_forms(family)

    def xi(c):  # Xi_pq(c) = c^dag F[p, q] c
        return np.einsum("i,pqij,j->pq", c.conj(), forms, c)

    rng = np.random.default_rng(31)
    c = rng.normal(size=1) + 1j * rng.normal(size=1)
    xi1, xic = xi(np.ones(1, dtype=complex)), xi(c)
    assert np.linalg.norm(xic - abs(c[0]) ** 2 * xi1) <= 1e-12
    assert np.linalg.norm(xic - xic.conj().T) <= 1e-13


def test_diagonal_structure_detection():
    assert _offdiag_vanishes(xi_forms(_family("S3", "discrete", 3, 2, (0, 2), (0, 2))))
    # identity + shear span: Xi picks up an off-diagonal cross term
    shear = _synthetic(
        [np.eye(2, dtype=complex).reshape(-1) / np.sqrt(2),
         np.array([0, 1, 0, 0], dtype=complex)],
        1, 2,
    )
    assert not _offdiag_vanishes(xi_forms(shear))


def test_empty_family_reports_no_solution():
    family = _family("SU2", "lie", 2, 1, (1,), (1,))
    assert family.n_params == 0
    report = solve_tp(family)
    assert report.status == "no_solution"
    assert "empty family" in report.detail


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(tp, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(tp, name, counted)
    return calls


def test_xi_forms_match_pairwise_products():
    family = _family("S3", "discrete", 3, 2, (0, 2), (0, 2))
    ops = family.basis.T.reshape(family.n_params, family.K, 3, 3)
    forms = xi_forms(family)
    for i in range(family.n_params):
        for j in range(family.n_params):
            ref = sum(a.conj().T @ b for a, b in zip(ops[i], ops[j]))
            assert np.array_equal(forms[:, :, i, j], ref)


def test_rank_deficient_certificate(monkeypatch):
    # Both families have structurally zero rows or columns in the stacked
    # Kraus operator, so no random SVD is needed to settle them.
    def unexpected(family, tries=3):
        raise AssertionError("structural certificate should have decided")

    monkeypatch.setattr(tp, "_generic_stack_rank", unexpected)
    # mixed Z2 rep pair: every covariant map factors through a proper subspace
    family = _family("Z2", "discrete", 2, 0, (0, 0), (0, 1))
    assert family.n_params == 2
    report = solve_tp(family)
    assert report.status == "no_solution"
    assert "rank deficient" in report.detail

    nilpotent = _synthetic([np.array([0, 1, 0, 0], dtype=complex)], 1, 2)
    report = solve_tp(nilpotent)
    assert report.status == "no_solution"
    assert "rank deficient" in report.detail


def test_zero_column_is_rank_deficient_before_any_lp(monkeypatch):
    # Column 1 of every A_k is zero, so Xi_11 vanishes identically: the rank
    # certificate decides before the free-phase linear path is reached.
    family = _synthetic(
        [np.array([1, 0, 0, 0], dtype=complex), np.array([0, 0, 1, 0], dtype=complex)], 1, 2
    )
    forms = xi_forms(family)
    assert _offdiag_vanishes(forms) and not np.any(forms[1, 1])
    calls = _count_calls(monkeypatch, "_vertices")
    report = solve_tp(family)
    assert report.status == "no_solution"
    assert "rank deficient" in report.detail
    assert calls == []


def test_generic_rank_certificate_without_zero_pattern():
    # a rank-1 family whose stack has no zero row or column
    ones = _synthetic([np.ones(4, dtype=complex) / 2], 1, 2)
    assert tp._structural_rank_bound(ones) == 2
    assert tp._generic_stack_rank(ones) == 1
    report = solve_tp(ones)
    assert report.status == "no_solution"
    assert "rank deficient" in report.detail


def _canonical(R):
    vertices = _vertices(R)
    return vertices[np.argmin(vertices @ np.arange(1.0, R.shape[1] + 1.0))]


def test_one_point_polytope_needs_one_lp(monkeypatch):
    # rank(R) = n: the polytope is one vertex, and one enumeration finds it
    family = _family("SO3", "lie", 3, 1, (1,), (1,))
    R = solve_tp(family).moduli_rows
    assert np.linalg.matrix_rank(R) == R.shape[1]
    assert len(_vertices(R)) == 1
    calls = _count_calls(monkeypatch, "_vertices")
    assert solve_tp(family).status == "solved"
    assert len(calls) == 1


def _mixed_solutions(family, report, seed):
    """The canonical point followed by the 64-attempt mixing loop over
    every vertex, as ``_linear_path`` runs it."""
    R, W = report.moduli_rows, report.decoupling
    rng = np.random.default_rng(seed)
    vertices = _vertices(R)
    solutions = [tp._coeff_from_moduli(W, _canonical(R))]
    keys = {tp._solution_key(solutions[0])}
    for _ in range(8 * tp.MAX_SOLUTIONS):
        if len(solutions) == tp.MAX_SOLUTIONS:
            break
        c = tp._mix(vertices, W, rng)
        if tp._tp_residual(c, family) <= 1e-10 and tp._solution_key(c) not in keys:
            keys.add(tp._solution_key(c))
            solutions.append(c)
    return solutions


BENCH_SWEEPS = [("SO3", 7, False), ("SU2", 5, False), ("Z2", 2, False), ("Z3", 1, False),
                ("S3", 5, True), ("A4", 4, True), ("D5", 4, True), ("Z4", 3, False)]


def test_vertices_match_highs_on_every_bench_polytope(monkeypatch):
    # HiGHS is the reference: the least cost over the enumerated vertices is
    # the LP optimum, for every moduli polytope the bench sweeps reach.
    polytopes = {}
    calls = _count_calls(monkeypatch, "_vertices")
    for group, d, nonunitary_only in BENCH_SWEEPS:
        run_enumeration(group, None, d, nonunitary_only=nonunitary_only)
    for (R,) in calls:
        polytopes.setdefault(R.tobytes(), R)
    assert len(polytopes) > 50
    rng = np.random.default_rng(37)
    for R in polytopes.values():
        vertices = _vertices(R)
        for _ in range(6):
            cost = rng.uniform(0.1, 1.0, R.shape[1])
            lp = linprog(cost, A_eq=R, b_eq=np.ones(len(R)), bounds=(0.0, None), method="highs")
            assert lp.status == 0
            assert abs((vertices @ cost).min() - lp.fun) <= 1e-9


def test_inconsistent_diagonal_rows_are_lp_infeasible():
    # A = c diag(1, sqrt 2) / sqrt 3: the stack has rank 2, but Xi = |c|^2
    # diag(1, 2) / 3 = 1 asks |c|^2 = 3 and |c|^2 = 3 / 2 at once.
    family = _synthetic([np.diag([1.0, np.sqrt(2.0)]).astype(complex).reshape(-1) / np.sqrt(3.0)], 1, 2)
    report = solve_tp(family)
    assert report.status == "no_solution"
    assert report.detail == "diagonal moduli constraints are infeasible"
    assert report.moduli_constraints == ["0.333333|u1|^2 = 1", "0.666667|u1|^2 = 1"]
    assert _vertices(report.moduli_rows).shape == (0, 1)


def test_rows_equal_up_to_roundoff_span_a_segment():
    # SO3 d=9, 1+3+5 -> 9 under the 7-dimensional irrep: every entry of R is
    # 1/9 up to roundoff, so |u1|^2 + |u2|^2 = 9 is a segment with two
    # vertices, not a point, and the record stores a full set of samples.
    family = _family("SO3", "lie", 9, 3, (0, 1, 2), (4,))
    R = solve_tp(family).moduli_rows
    assert R.shape == (9, 2) and np.allclose(R, 1.0 / 9.0, atol=1e-14)
    assert np.allclose(_vertices(R), [[9.0, 0.0], [0.0, 9.0]], atol=1e-9)
    manifest = run_enumeration("SO3", "lie", 9, reps=["1+3+5", "9"], seed=7)
    (record,) = [
        r for r in manifest.records if (r.d1_label.text, r.d2_label.text, r.omega_index) == ("1+3+5", "9", 3)
    ]
    assert record.status == "channel_found" and record.classification == "extreme"
    assert len(record.kraus_samples) == tp.MAX_SOLUTIONS


def test_one_point_one_modulus_family_is_not_mixed(monkeypatch):
    family = _family("SO3", "lie", 3, 1, (1,), (1,))
    assert family.n_params == 1
    reference = _mixed_solutions(family, solve_tp(family), seed=4)
    assert len(reference) == 1  # every mix gauges back to the canonical point
    calls = _count_calls(monkeypatch, "_mix")
    report = solve_tp(family, seed=4)
    assert report.detail == "moduli linear program"
    assert calls == []
    assert len(report.solutions) == 1
    assert report.solutions[0].tobytes() == reference[0].tobytes()


def test_one_point_two_moduli_family_is_still_mixed(monkeypatch):
    # A = diag(a, b): Xi = diag(|a|^2, |b|^2), so the polytope is the point
    # |a| = |b| = 1 and the relative phase of a and b stays free.
    family = _synthetic([np.array([1, 0, 0, 0], dtype=complex), np.array([0, 0, 0, 1], dtype=complex)], 1, 2)
    first = solve_tp(family, seed=4)
    assert np.linalg.matrix_rank(first.moduli_rows) == 2
    assert np.count_nonzero(_canonical(first.moduli_rows)) == 2
    reference = _mixed_solutions(family, first, seed=4)
    calls = _count_calls(monkeypatch, "_mix")
    report = solve_tp(family, seed=4)
    assert len(calls) >= tp.MAX_SOLUTIONS - 1
    assert len(report.solutions) == len(reference) == tp.MAX_SOLUTIONS
    for a, b in zip(report.solutions, reference):
        assert a.tobytes() == b.tobytes()


def test_s3_family_solves_on_linear_path():
    family = _family("S3", "discrete", 3, 2, (0, 2), (0, 2))
    report = solve_tp(family, seed=0)
    assert report.status == "solved"
    assert report.moduli_rows is not None
    assert "linear program" in report.detail
    assert len(report.solutions) == 8
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


def test_nonlinear_fallback_on_noncommuting_diagonal_forms():
    w = np.exp(2j * np.pi / 3)
    family = _synthetic(
        [np.eye(3, dtype=complex).reshape(-1) / np.sqrt(3),
         np.diag([1.0, w, w * w]).reshape(-1) / np.sqrt(3)],
        1, 3,
    )
    report = solve_tp(family, seed=2)
    assert report.status == "solved"
    assert report.detail == "multi-start projection"
    assert _max_residual(report, family) <= 1e-10
    # the only TP points are the two unitary axes of the span
    for c in report.solutions:
        assert min(abs(c[0]), abs(c[1])) <= 1e-6
        assert abs(max(abs(c[0]), abs(c[1])) - np.sqrt(3)) <= 1e-6


def test_offdiagonal_family_goes_straight_to_multistart(monkeypatch):
    # span{1, sigma_x}: Xi has the off-diagonal entry 2 Re(a conj(b)), so the
    # phases are not free and no diagonaliser or LP is consulted
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    family = _synthetic(
        [np.eye(2, dtype=complex).reshape(-1) / np.sqrt(2), sx.reshape(-1) / np.sqrt(2)],
        1, 2,
    )
    vertex_calls = _count_calls(monkeypatch, "_vertices")
    diag_calls = _count_calls(monkeypatch, "_joint_diagonalizer")
    report = solve_tp(family, seed=7)
    assert report.status == "solved"
    assert report.detail == "multi-start projection"
    assert report.moduli_rows is None
    assert _max_residual(report, family) <= 1e-12
    assert len(vertex_calls) == 0
    assert len(diag_calls) == 0


def test_undecided_family_reports_solver_failure():
    # rank certificate passes but no TP point exists: honest "undecided"
    family = _synthetic(
        [np.array([1, 0, 0, 0], dtype=complex),
         np.array([0, 0, 1, 1], dtype=complex) / np.sqrt(2)],
        1, 2,
    )
    report = solve_tp(family, seed=5)
    assert report.status == "solver_failed"
    assert "existence undecided" in report.detail
    assert report.solutions == []


def test_expired_deadline_is_reported():
    family = _synthetic(
        [np.array([1, 0, 0, 0], dtype=complex),
         np.array([0, 0, 1, 1], dtype=complex) / np.sqrt(2)],
        1, 2,
    )
    report = solve_tp(family, seed=5, deadline=time.perf_counter() - 1.0)
    assert report.status == "solver_failed"
    assert "time budget" in report.detail


@pytest.mark.parametrize("omega", [2, 3])
def test_canonical_solution_sits_at_a_vertex_that_fails_the_rank_test(omega):
    # D5 d=4, 2_1+2_2 -> 2_1+2_2 under 2_1 and under 2_2: the automorphism
    # swapping 2_1 and 2_2 maps one family onto the other, and each has two
    # vertices, one failing the rank test.  Under 2_1 the least-cost vertex
    # is the failing one, under 2_2 the passing one; both canonical
    # solutions sit at the failing vertex.
    family = _family("D5", "discrete", 4, omega, (2, 3), (2, 3))
    report = solve_tp(family)
    W, vertices = report.decoupling, _vertices(report.moduli_rows)
    points = np.stack([family.kraus_at(tp._coeff_from_moduli(W, v)) for v in vertices])
    fails = extremality.test_extreme(points).rank != family.K**2
    least = np.argmin(vertices @ np.arange(1.0, family.n_params + 1.0))
    assert len(vertices) == 2 and fails.sum() == 1 and fails[least] == (omega == 2)
    assert not extremality.test_extreme(family.kraus_at(report.solutions[0])[None]).is_extreme
    assert np.allclose(report.solutions[0], tp._coeff_from_moduli(W, vertices[fails][0]))


def test_canonical_vertex_follows_tol_rank():
    # D5 d=4, 1+1'+2_2 -> 2_1+2_1 under 2_1: eight vertices whose product
    # stacks have singular-value ratios 1, 0.71 or ~1e-16.  At the default
    # tolerance only the ~1e-16 ones fail; at 0.75 the 0.71 ones fail too,
    # and a cheaper one of them becomes the canonical vertex.
    family = _family("D5", "discrete", 4, 2, (0, 1, 3), (2, 2))
    report = solve_tp(family)
    W, vertices = report.decoupling, _vertices(report.moduli_rows)
    points = np.stack([family.kraus_at(tp._coeff_from_moduli(W, v)) for v in vertices])
    cost = vertices @ np.arange(1.0, family.n_params + 1.0)
    chosen = []
    for tol_rank in (extremality.DEFAULT_TOL_RANK, 0.75):
        fails = extremality.test_extreme(points, tol_rank=tol_rank).rank != family.K**2
        canonical = vertices[np.argmin(np.where(fails, cost, np.inf))]
        assert np.allclose(solve_tp(family, tol_rank=tol_rank).solutions[0], tp._coeff_from_moduli(W, canonical))
        chosen.append(canonical)
    assert not np.array_equal(*chosen)
