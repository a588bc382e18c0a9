"""Trace-preservation solving over a covariant CP-map family.

Coefficients c over the kernel basis determine Kraus operators A_k(c) and
the Hermitian form Xi(c) = sum_k A_k(c)^dag A_k(c); a channel needs
Xi(c) = identity.  Every entry of Xi is a Hermitian quadratic form
Xi_pq(c) = c^dag M^(pq) c, which drives a three-stage strategy:

1. Certificates.  If the vertical stack of the A_k never reaches column
   rank d anywhere on the family, or the diagonal constraints are
   infeasible over moduli, no solution exists.  Exact zeros of the basis
   settle the rank first: fewer than d rows or columns of the stack that are
   not identically zero bound its rank below d.  Otherwise the rank at up to
   three random points decides (generic rank < d).
2. Linear path, for free-phase families: every off-diagonal form M^(pq)
   vanishes structurally, so Xi(c) is diagonal for every c.  When the
   diagonal forms M^(pp) also commute they share an eigenbasis; in those
   decoupled coordinates u the constraints read R t = 1 with t_j = |u_j|^2,
   a linear-programming problem, and the phases of u stay free.  Every
   vertex of that polytope is enumerated exactly (:func:`_vertices`); an
   empty list certifies infeasibility.  The canonical solution sits at the
   vertex of least t_1 + 2 t_2 + ... + n t_n among those that fail the
   rank test (among all when none does), so a non-extreme vertex is always
   a sample, and the others mix all the vertices with random weights and
   phases.  When the polytope is one point with at most one nonzero
   modulus, every random-phase mix of it gauges back to the canonical
   solution, so the canonical solution is returned alone without mixing.
3. Multi-start projection, for every other family (and, as a numerical
   safety net, for a free-phase family whose forms do not diagonalise or
   whose canonical vertex misses ``tol_tp``).  Seeded random starts are
   each landed on the trace-preserving set by alternating projection
   (:func:`_project`); failure to converge is reported as such, not as
   proof of infeasibility.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .channels import DEFAULT_TOL_RANK, product_rank, tp_residuals
from .kernels import KernelFamily, leading_entry

DEFAULT_TOL_TP = 1e-10
MAX_SOLUTIONS = 8

_STRUCT_TOL = 1e-12  # structural-zero decision for quadratic-form tensors
_DIAG_TOL = 1e-10  # joint-diagonalization verification
_CERT_SEED = 0x5EED  # fixed seed: certificates must not depend on user seed
_MODULI_TOL = 1e-9  # rank, feasibility and duplicate tolerance of the moduli polytope


@dataclass
class TpSolveReport:
    """Outcome of a trace-preservation solve.

    ``solutions`` are coefficient vectors over the family's kernel basis.
    ``moduli_rows`` is set only by the linear path, so a non-None value
    means the family is free-phase: R @ |u|^2 = 1 is the whole constraint,
    ``decoupling`` maps the decoupled coordinates u to coefficients
    (c = decoupling @ u), and every phase of u is free.
    """

    status: str  # "solved" | "no_solution" | "solver_failed"
    solutions: list = field(default_factory=list)
    moduli_rows: np.ndarray | None = None
    moduli_constraints: list = field(default_factory=list)
    decoupling: np.ndarray | None = None
    detail: str = ""


def _tp_residual(coeffs, family: KernelFamily) -> float:
    """Frobenius norm of Xi(c) - 1, by :func:`gcec.channels.tp_residuals`."""
    return float(tp_residuals(family.kraus_at(coeffs)[None])[0])


def xi_forms(family: KernelFamily) -> np.ndarray:
    """Coefficient tensor F with Xi_pq(c) = c^dag F[p, q] c, shape (d,d,n,n).

    One batched product A_ik^dag A_jk over (i, j, k), summed over k in slot
    order."""
    n, K, d = family.n_params, family.K, family.d
    ops = family.basis.T.reshape(n, K, d, d)
    prods = np.swapaxes(ops.conj(), -1, -2)[:, None] @ ops[None, :]
    return np.ascontiguousarray(np.moveaxis(prods.sum(axis=2), (0, 1), (2, 3)))


def _offdiag_vanishes(forms: np.ndarray) -> bool:
    """True iff every off-diagonal entry of Xi is identically zero in c."""
    d = forms.shape[0]
    if d == 1:  # Xi is a scalar: nothing off the diagonal
        return True
    mask = ~np.eye(d, dtype=bool)
    scale = max(1.0, float(np.abs(forms).max()))
    return float(np.abs(forms[mask]).max()) <= _STRUCT_TOL * scale


def _gauge_phase(c: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the first significant entry is real > 0."""
    lead, _ = leading_entry(c)
    if lead == c.size:
        return c
    return c * np.exp(-1j * np.angle(c[lead]))


def _solution_key(c: np.ndarray) -> bytes:
    return (np.round(np.asarray(c), 9) + 0.0).tobytes()


def _structural_rank_bound(family: KernelFamily) -> int:
    """Bound on the rank of the stacked (K d, d) operator over the whole
    family: the number of its rows, and of its columns, that some basis
    vector makes nonzero.  Only exact zeros of the basis count."""
    support = np.any(family.basis != 0, axis=1).reshape(family.K * family.d, family.d)
    return min(int(support.any(axis=1).sum()), int(support.any(axis=0).sum()))


def _generic_stack_rank(family: KernelFamily, tries: int = 3) -> int:
    """Max over random coefficients of rank of the stacked (K d, d) operator.

    Rank is lower-semicontinuous, so a random point attains the family's
    maximal rank almost surely; below d this certifies that Xi(c) = 1 (an
    isometry condition on the stack) has no solution.  Stops at the first
    try that reaches full rank d.
    """
    rng = np.random.default_rng(_CERT_SEED)
    n, d = family.n_params, family.d
    best = 0
    for _ in range(tries):
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        svals = np.linalg.svd(family.kraus_at(c).reshape(-1, d), compute_uv=False)
        if svals[0] > 0.0:
            best = max(best, int(np.sum(svals > 1e-10 * svals[0])))
        if best == d:
            break
    return best


def _joint_diagonalizer(diag_forms: list[np.ndarray]) -> np.ndarray | None:
    """Common eigenbasis of commuting Hermitian forms, or None."""
    n = diag_forms[0].shape[0]
    if n == 1:
        return np.eye(1, dtype=complex)
    scale = max(1.0, max(float(np.abs(m).max()) for m in diag_forms))
    for a in range(len(diag_forms)):
        for b in range(a + 1, len(diag_forms)):
            comm = diag_forms[a] @ diag_forms[b] - diag_forms[b] @ diag_forms[a]
            if float(np.abs(comm).max()) > _DIAG_TOL * scale * scale:
                return None
    rng = np.random.default_rng(_CERT_SEED)
    for _ in range(3):
        weights = rng.uniform(0.5, 1.5, len(diag_forms))
        combo = sum(w * m for w, m in zip(weights, diag_forms))
        _, vecs = np.linalg.eigh(combo)
        ok = all(
            float(
                np.abs(
                    (vecs.conj().T @ m @ vecs)[~np.eye(n, dtype=bool)]
                ).max()
            )
            <= _DIAG_TOL * scale
            for m in diag_forms
        )
        if ok:
            return vecs
    return None


def _order_decoupled(basis: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Permute/phase the decoupled transform so columns of basis @ W are
    ordered by their first significant entry and lead with a positive real."""
    B = basis @ W
    leads, phases = zip(*(leading_entry(B[:, j]) for j in range(B.shape[1])))
    order = sorted(range(B.shape[1]), key=lambda j: (leads[j], j))
    out = W[:, order].copy()
    for pos, j in enumerate(order):
        out[:, pos] = out[:, pos] * np.conj(phases[j])
    return out


def _moduli_rows(forms: np.ndarray, W: np.ndarray) -> np.ndarray:
    d, n = forms.shape[0], W.shape[1]
    R = np.zeros((d, n))
    for p in range(d):
        diag = np.real(np.diag(W.conj().T @ forms[p, p] @ W)).copy()
        diag[np.abs(diag) <= 1e-12 * max(1.0, float(np.abs(diag).max()))] = 0.0
        R[p] = np.clip(diag, 0.0, None)
    return R


def _constraint_strings(R: np.ndarray) -> list[str]:
    seen: list[str] = []
    for row in R:
        terms = [
            f"{val:.6g}|u{j + 1}|^2" for j, val in enumerate(row) if val != 0.0
        ]
        text = (" + ".join(terms) if terms else "0") + " = 1"
        if text not in seen:
            seen.append(text)
    return seen


def _vertices(R: np.ndarray) -> np.ndarray:
    """Every vertex of {t >= 0 : R t = 1}, one per row; none when infeasible.

    Each column of R sums to 1 (the trace of Xi is |u|^2), so sum_j t_j = d
    and the polytope is bounded: it is the hull of its vertices, the basic
    feasible solutions.  Every set of rank(R) columns with full column rank
    is solved and kept when its solution is nonnegative and satisfies
    R t = 1, so a call costs C(n, rank R) small solves; the most measured
    is 252 (D4 d=6), and sweeps up to SO3 d=13 and SU2 d=9 need at most 165.
    Rows of R can agree only up to roundoff, so every rank is read at
    ``_MODULI_TOL``.  Vertices come in column-subset order, without
    near-duplicates (a degenerate vertex solves several subsets).
    """
    rows, n = R.shape
    rank = np.linalg.matrix_rank(R, tol=_MODULI_TOL)
    found: list[np.ndarray] = []
    for cols in combinations(range(n), rank):
        sub = R[:, cols]
        if np.linalg.matrix_rank(sub, tol=_MODULI_TOL) < rank:
            continue
        t = np.zeros(n)
        t[list(cols)] = np.linalg.lstsq(sub, np.ones(rows))[0]
        if t.min() >= -1e-12 and np.abs(R @ t - 1.0).max() <= _MODULI_TOL:
            t = np.clip(t, 0.0, None)
            if not any(np.allclose(t, v, atol=_MODULI_TOL) for v in found):
                found.append(t)
    return np.array(found).reshape(-1, n)


def _coeff_from_moduli(W: np.ndarray, t: np.ndarray, phases=None) -> np.ndarray:
    u = np.sqrt(np.clip(t, 0.0, None)).astype(complex)
    if phases is not None:
        u = u * np.exp(1j * phases)
    return _gauge_phase(W @ u)


def _mix(vertices: np.ndarray, W: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Coefficients at a random convex combination of the moduli vertices
    (rows), with uniformly random phases of u (weights drawn first)."""
    weights = rng.random(len(vertices))
    t = weights @ vertices / weights.sum()
    return _coeff_from_moduli(W, t, rng.uniform(0.0, 2.0 * np.pi, W.shape[1]))


def solve_tp(
    family: KernelFamily,
    tol_tp: float = DEFAULT_TOL_TP,
    n_starts: int = 64,
    seed=0,
    deadline: float | None = None,
    tol_rank: float = DEFAULT_TOL_RANK,
) -> TpSolveReport:
    """Find trace-preserving points of the family, with certificates.

    ``deadline`` is an absolute ``time.perf_counter`` value after which the
    multi-start stops issuing new starts (statuses stay deterministic for runs
    that do not hit it).  ``tol_rank`` is the rank test's tolerance, with
    which the linear path picks its canonical vertex.
    """
    n, d = family.n_params, family.d
    if n == 0:
        return TpSolveReport(
            status="no_solution",
            detail="empty family: only the zero map is covariant",
        )

    if _structural_rank_bound(family) < d or _generic_stack_rank(family) < d:
        return TpSolveReport(
            status="no_solution",
            detail="stacked Kraus operator is rank deficient on the whole family",
        )

    forms = xi_forms(family)
    rng = np.random.default_rng(seed)
    if _offdiag_vanishes(forms):
        W = _joint_diagonalizer([forms[p, p] for p in range(d)])
        if W is not None:
            W = _order_decoupled(family.basis, W)
            report = _linear_path(family, W, _moduli_rows(forms, W), tol_tp, tol_rank, rng)
            if report is not None:
                return report
    return _nonlinear_path(family, tol_tp, n_starts, rng, deadline)


def _canonical_vertex(family: KernelFamily, W: np.ndarray, vertices: np.ndarray, tol_rank: float) -> np.ndarray:
    """The vertex of least t_1 + 2 t_2 + ... + n t_n among those whose
    point (all phases 0) fails the rank test at ``tol_rank``, or among all
    vertices when none does; a tie goes to the first vertex in subset order.

    A failing vertex is a channel of the family that is not extreme, so it
    makes the record quasi_extreme.  Two families that a label move maps
    onto each other (:mod:`gcec.classes`) have the same polytope with the
    decoupled coordinates in another order, so by cost alone one could sit
    at a failing vertex and the other at a passing one; taking a failing
    vertex whenever there is one gives both the same classification.
    """
    cost = vertices @ np.arange(1.0, family.n_params + 1.0)
    if len(vertices) > 1 and family.K <= family.d:  # K > d: every vertex fails
        stack = np.stack([family.kraus_at(_coeff_from_moduli(W, v)) for v in vertices])
        fails = product_rank(stack, tol_rank)[1] != family.K**2
        if fails.any():
            cost = np.where(fails, cost, np.inf)
    return vertices[np.argmin(cost)]


def _linear_path(family, W, R, tol_tp, tol_rank, rng):
    """Solve a free-phase family over moduli; None when the canonical vertex
    misses ``tol_tp`` (drawing nothing from ``rng`` first, so the
    multi-start sees the same stream)."""
    n = family.n_params

    def lp_report(status: str, detail: str, **found) -> TpSolveReport:
        return TpSolveReport(
            status=status,
            moduli_rows=R,
            moduli_constraints=_constraint_strings(R),
            decoupling=W,
            detail=detail,
            **found,
        )

    vertices = _vertices(R)
    if not len(vertices):
        return lp_report("no_solution", "diagonal moduli constraints are infeasible")
    canonical = _canonical_vertex(family, W, vertices, tol_rank)
    c0 = _coeff_from_moduli(W, canonical)
    if _tp_residual(c0, family) > tol_tp:
        return None

    solutions = [c0]
    if len(vertices) == 1 and np.count_nonzero(canonical) <= 1:
        # Every mix then has a single nonzero u_j, whose phase the gauge
        # turns back: each one is c0 again.
        return lp_report("solved", "moduli linear program", solutions=solutions)
    keys = {_solution_key(c0)}
    attempts = 0
    while len(solutions) < MAX_SOLUTIONS and attempts < 8 * MAX_SOLUTIONS:
        attempts += 1
        c = _mix(vertices, W, rng)
        if _tp_residual(c, family) > tol_tp:
            continue
        key = _solution_key(c)
        if key not in keys:
            keys.add(key)
            solutions.append(c)
    return lp_report("solved", "moduli linear program", solutions=solutions)


def _project(c: np.ndarray, family: KernelFamily, max_iter: int = 60):
    """Pull a point onto the trace-preserving set by alternating between the
    nearest isometry (polar factor of the stacked Kraus matrix) and the kernel
    span.  Each step is an explicit, well-conditioned map, so the landing
    point is a stable function of the start — important where the solution
    set has flat directions, along which a minimiser's endpoint would be
    exquisitely sensitive to rounding noise."""
    best_c, best_r = c, _tp_residual(c, family)
    for _ in range(max_iter):
        u, _, vh = np.linalg.svd(family.kraus_at(c).reshape(-1, family.d), full_matrices=False)
        c = family.basis.conj().T @ (u @ vh).reshape(-1)
        r = _tp_residual(c, family)
        if r < best_r:
            best_c, best_r = c, r
        elif r > 2.0 * best_r:
            break
        if r <= 1e-14:
            break
    return best_c, best_r


def _snap(c: np.ndarray, family: KernelFamily, tol_tp: float):
    """Round a solution onto a coarse lattice and, when the rounded point is
    within 1e4 * tol_tp, re-project it.  Repeated runs then agree bitwise
    even if the last few ulps of the landing point differ."""
    c = np.round(_gauge_phase(c), 8) + (0.0 + 0.0j)
    r = _tp_residual(c, family)
    if r <= 1e4 * tol_tp:
        c, r = _project(c, family, max_iter=25)
    return _gauge_phase(c), r


def _nonlinear_path(family, tol_tp, n_starts, rng, deadline):
    solutions = []
    keys = set()
    timed_out = False
    for _ in range(n_starts):
        if deadline is not None and time.perf_counter() > deadline:
            timed_out = True
            break
        re, im = rng.standard_normal((2, family.n_params))
        c, r = _project(re + 1j * im, family)
        if not r <= tol_tp:
            continue
        c, r = _snap(c, family, tol_tp)
        if r <= tol_tp:
            key = _solution_key(c)
            if key not in keys:
                keys.add(key)
                solutions.append(c)
            if len(solutions) >= MAX_SOLUTIONS:
                break
    if solutions:
        return TpSolveReport(
            status="solved",
            solutions=solutions,
            detail="multi-start projection",
        )
    return TpSolveReport(
        status="solver_failed",
        detail="no start converged"
        + (" before the time budget expired" if timed_out else "")
        + "; existence undecided",
    )

