"""Trace-preservation solving: certificates, linear path, fallback, sampler."""

import time

import numpy as np
import pytest

from gcec.errors import EmptyManifold
from gcec.groups import props
from gcec.kernels import KernelFamily, build_discrete_system, build_lie_system, joint_nullspace, kraus_to_vec
from gcec.reps import make_rep_label, materialize
import gcec.tp as tp
from gcec.tp import TpSolveReport, _offdiag_vanishes, _vertex, solution_sampler, solve_tp, xi_forms, xi_of

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


def test_xi_is_quadratic_and_hermitian():
    family = _family("SO3", "lie", 3, 1, (1,), (1,))
    rng = np.random.default_rng(31)
    c = rng.normal(size=1) + 1j * rng.normal(size=1)
    xi1 = xi_of(np.ones(1), family)
    xic = xi_of(c, family)
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


def test_generic_rank_certificate_without_zero_pattern():
    # a rank-1 family whose stack has no zero row or column
    ones = _synthetic([np.ones(4, dtype=complex) / 2], 1, 2)
    assert tp._structural_rank_bound(ones) == 2
    assert tp._generic_stack_rank(ones) == 1
    report = solve_tp(ones)
    assert report.status == "no_solution"
    assert "rank deficient" in report.detail


def _canonical(R):
    return _vertex(R, [np.arange(1.0, R.shape[1] + 1.0)])[0]


def test_one_point_polytope_needs_one_lp(monkeypatch):
    family = _family("SO3", "lie", 3, 1, (1,), (1,))
    R = solve_tp(family).moduli_rows
    assert np.linalg.matrix_rank(R) == R.shape[1]
    # every cost reaches the canonical vertex, so skipping these LPs loses nothing
    canonical = _canonical(R)
    rng = np.random.default_rng(35)
    for _ in range(6):
        (v,) = _vertex(R, [rng.uniform(0.1, 1.0, R.shape[1])])
        assert np.allclose(v, canonical, atol=1e-9)
    calls = _count_calls(monkeypatch, "_vertex")
    assert solve_tp(family).status == "solved"
    assert len(calls) == 1


def test_batched_lp_matches_individual_lps(monkeypatch):
    family = _family("S3", "discrete", 3, 2, (0, 2), (0, 2))
    R = solve_tp(family).moduli_rows
    assert np.linalg.matrix_rank(R) < R.shape[1]
    rng = np.random.default_rng(36)
    costs = [rng.uniform(0.1, 1.0, R.shape[1]) for _ in range(6)]
    batched = _vertex(R, costs)
    single = [_vertex(R, [c])[0] for c in costs]
    assert len(batched) == 6
    for a, b in zip(batched, single):
        assert np.allclose(a, b, atol=1e-12)
    # the costs reach more than one vertex: the polytope is not a point
    assert any(not np.allclose(v, _canonical(R), atol=1e-9) for v in single)
    calls = _count_calls(monkeypatch, "_vertex")
    assert solve_tp(family).status == "solved"
    assert len(calls) == 2


def test_s3_family_solves_on_linear_path():
    family = _family("S3", "discrete", 3, 2, (0, 2), (0, 2))
    report = solve_tp(family, seed=0)
    assert report.status == "solved"
    assert report.moduli_rows is not None
    assert "linear program" in report.detail
    assert len(report.solutions) == 8
    assert max(report.residuals) <= 1e-10
    for c in report.solutions:
        assert np.linalg.norm(xi_of(c, family) - np.eye(3)) <= 1e-10


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
        c = family.basis.conj().T @ kraus_to_vec(s3_qutrit_family(alpha, beta, gamma))
        assert np.linalg.norm(xi_of(c, family) - np.eye(3)) <= 1e-10


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
    assert max(report.residuals) <= 1e-10
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
    vertex_calls = _count_calls(monkeypatch, "_vertex")
    diag_calls = _count_calls(monkeypatch, "_joint_diagonalizer")
    report = solve_tp(family, seed=7)
    assert report.status == "solved"
    assert report.detail == "multi-start projection"
    assert report.moduli_rows is None
    assert max(report.residuals) <= 1e-12
    assert np.linalg.norm(xi_of(report.solutions[0], family) - np.eye(2)) <= 1e-12
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


def test_sampler_covers_free_phase_manifold():
    family = _family("S3", "discrete", 3, 2, (0, 2), (0, 2))
    report = solve_tp(family, seed=0)
    sampler = solution_sampler(family, report)
    points = sampler(np.random.default_rng(33), 10)
    assert len(points) == 10
    for c in points:
        assert np.linalg.norm(xi_of(c, family) - np.eye(3)) <= 1e-10


def test_sampler_reconverges_near_isolated_solutions():
    w = np.exp(2j * np.pi / 3)
    family = _synthetic(
        [np.eye(3, dtype=complex).reshape(-1) / np.sqrt(3),
         np.diag([1.0, w, w * w]).reshape(-1) / np.sqrt(3)],
        1, 3,
    )
    report = solve_tp(family, seed=2)
    sampler = solution_sampler(family, report)
    points = sampler(np.random.default_rng(34), 4)
    assert len(points) == 4
    for c in points:
        assert np.linalg.norm(xi_of(c, family) - np.eye(3)) <= 1e-10


def test_sampler_requires_solved_report():
    family = _family("S3", "discrete", 3, 2, (0, 2), (0, 2))
    with pytest.raises(EmptyManifold):
        solution_sampler(family, TpSolveReport(status="no_solution"))
