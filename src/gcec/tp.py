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
   a linear-programming problem, and the phases of u stay free.  Besides
   the canonical vertex, six random-cost vertices are sought by one
   block-diagonal LP (:func:`_vertex`); when rank(R) = n the polytope is the
   canonical point alone and that LP is skipped, its costs still drawn so
   the RNG stream is unchanged.
3. Multi-start projection, for every other family (and, as a numerical
   safety net, for a free-phase family whose forms do not diagonalise or
   whose canonical LP point misses ``tol_tp``).  Seeded random starts are
   each landed on the trace-preserving set by alternating projection
   (:func:`_converge`); failure to converge is reported as such, not as
   proof of infeasibility.

The solution sampler reuses both halves: :func:`_vertex` and :func:`_mix`
draw points of the moduli polytope with free phases, and :func:`_converge`
re-lands perturbed solutions of the nonlinear families.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .errors import EmptyManifold
from .kernels import KernelFamily, leading_entry

DEFAULT_TOL_TP = 1e-10
MAX_SOLUTIONS = 8

_STRUCT_TOL = 1e-12  # structural-zero decision for quadratic-form tensors
_DIAG_TOL = 1e-10  # joint-diagonalization verification
_CERT_SEED = 0x5EED  # fixed seed: certificates must not depend on user seed


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
    residuals: list = field(default_factory=list)
    moduli_rows: np.ndarray | None = None
    moduli_constraints: list = field(default_factory=list)
    decoupling: np.ndarray | None = None
    detail: str = ""


def xi_of(coeffs, family: KernelFamily) -> np.ndarray:
    """Xi(c) = sum_k A_k(c)^dag A_k(c) for coefficients over the basis."""
    kraus = family.kraus_at(np.asarray(coeffs, dtype=complex))
    return sum(m.conj().T @ m for m in kraus)


def _tp_residual(coeffs, family: KernelFamily) -> float:
    """Frobenius norm of Xi(c) - 1."""
    return float(np.linalg.norm(xi_of(coeffs, family) - np.eye(family.d)))


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
        stack = np.vstack(family.kraus_at(c))
        svals = np.linalg.svd(stack, compute_uv=False)
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


def _vertex(R: np.ndarray, costs) -> list:
    """Vertices of {t >= 0 : R t = 1} minimising each vector in ``costs``.

    All costs go into one block-diagonal LP, kron(I, R), whose solution
    splits into one vertex per cost: the LPs are independent, and one solver
    call costs about what one small LP does.  Each entry is an array, or all
    are "infeasible", or all None when the solver fails otherwise.
    """
    m, (rows, n) = len(costs), R.shape
    res = linprog(
        np.concatenate(costs),
        A_eq=np.kron(np.eye(m), R),
        b_eq=np.ones(m * rows),
        bounds=[(0.0, None)] * (m * n),
        method="highs",
    )
    if res.status == 2:
        return ["infeasible"] * m
    if res.status == 0:
        return list(np.clip(res.x, 0.0, None).reshape(m, n))
    return [None] * m


def _coeff_from_moduli(W: np.ndarray, t: np.ndarray, phases=None) -> np.ndarray:
    u = np.sqrt(np.clip(t, 0.0, None)).astype(complex)
    if phases is not None:
        u = u * np.exp(1j * phases)
    return _gauge_phase(W @ u)


def _mix(vertices: list[np.ndarray], W: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Coefficients at a random convex combination of moduli vertices, with
    uniformly random phases of u (weights are drawn before phases)."""
    weights = rng.random(len(vertices))
    weights /= weights.sum()
    t = sum(w * v for w, v in zip(weights, vertices))
    return _coeff_from_moduli(W, t, rng.uniform(0.0, 2.0 * np.pi, W.shape[1]))


def solve_tp(
    family: KernelFamily,
    tol_tp: float = DEFAULT_TOL_TP,
    n_starts: int = 64,
    seed=0,
    deadline: float | None = None,
) -> TpSolveReport:
    """Find trace-preserving points of the family, with certificates.

    ``deadline`` is an absolute ``time.perf_counter`` value after which the
    multi-start stops issuing new starts (statuses stay deterministic for runs
    that do not hit it).
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
            report = _linear_path(family, W, _moduli_rows(forms, W), tol_tp, rng)
            if report is not None:
                return report
    return _nonlinear_path(family, tol_tp, n_starts, rng, deadline)


def _linear_path(family, W, R, tol_tp, rng):
    """Solve a free-phase family over moduli; None when the LP solver fails
    or the canonical point misses ``tol_tp`` (drawing nothing from ``rng``
    first, so the multi-start sees the same stream)."""
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

    if np.any(R.sum(axis=1) == 0.0):
        return lp_report("no_solution", "a diagonal entry of Xi is identically zero")
    (canonical,) = _vertex(R, [np.arange(1.0, n + 1.0)])
    if isinstance(canonical, str):  # infeasible
        return lp_report("no_solution", "diagonal moduli constraints are infeasible")
    if canonical is None:
        return None
    c0 = _coeff_from_moduli(W, canonical)
    r0 = _tp_residual(c0, family)
    if r0 > tol_tp:
        return None

    solutions, residuals = [c0], [r0]
    keys = {_solution_key(c0)}
    vertices = [canonical]
    # The costs are drawn even when unused, so the RNG stream does not depend
    # on the polytope.  With rank(R) = n the polytope is the canonical point.
    costs = [rng.uniform(0.1, 1.0, n) for _ in range(6)]
    if np.linalg.matrix_rank(R) < n:
        for v in _vertex(R, costs):
            if isinstance(v, np.ndarray) and not any(
                np.allclose(v, known, atol=1e-9) for known in vertices
            ):
                vertices.append(v)
    attempts = 0
    while len(solutions) < MAX_SOLUTIONS and attempts < 8 * MAX_SOLUTIONS:
        attempts += 1
        c = _mix(vertices, W, rng)
        r = _tp_residual(c, family)
        if r > tol_tp:
            continue
        key = _solution_key(c)
        if key not in keys:
            keys.add(key)
            solutions.append(c)
            residuals.append(r)
    return lp_report("solved", "moduli linear program", solutions=solutions, residuals=residuals)


def _project(c: np.ndarray, family: KernelFamily, max_iter: int = 60):
    """Pull a point onto the trace-preserving set by alternating between the
    nearest isometry (polar factor of the stacked Kraus matrix) and the kernel
    span.  Each step is an explicit, well-conditioned map, so the landing
    point is a stable function of the start — important where the solution
    set has flat directions, along which a minimiser's endpoint would be
    exquisitely sensitive to rounding noise."""
    best_c, best_r = c, _tp_residual(c, family)
    for _ in range(max_iter):
        u, _, vh = np.linalg.svd(np.vstack(family.kraus_at(c)), full_matrices=False)
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


def _converge(x0: np.ndarray, family: KernelFamily, tol_tp: float) -> np.ndarray | None:
    """Land a start x0 = (Re c, Im c) on the trace-preserving set by
    :func:`_project`; returns c, or None when its residual exceeds
    ``tol_tp``."""
    n = family.n_params
    c, r = _project(x0[:n] + 1j * x0[n:], family)
    return c if r <= tol_tp else None


def _nonlinear_path(family, tol_tp, n_starts, rng, deadline):
    solutions, residuals = [], []
    keys = set()
    timed_out = False
    for _ in range(n_starts):
        if deadline is not None and time.perf_counter() > deadline:
            timed_out = True
            break
        c = _converge(rng.standard_normal(2 * family.n_params), family, tol_tp)
        if c is None:
            continue
        c, r = _snap(c, family, tol_tp)
        if r <= tol_tp:
            key = _solution_key(c)
            if key not in keys:
                keys.add(key)
                solutions.append(c)
                residuals.append(r)
            if len(solutions) >= MAX_SOLUTIONS:
                break
    if solutions:
        return TpSolveReport(
            status="solved",
            solutions=solutions,
            residuals=residuals,
            detail="multi-start projection",
        )
    return TpSolveReport(
        status="solver_failed",
        detail="no start converged"
        + (" before the time budget expired" if timed_out else "")
        + "; existence undecided",
    )


def solution_sampler(family: KernelFamily, report: TpSolveReport, tol_tp: float = DEFAULT_TOL_TP):
    """Build ``sampler(rng, count) -> list of coefficient vectors`` over the
    trace-preserving set described by a solved report."""
    if report.status != "solved" or not report.solutions:
        raise EmptyManifold("family has no known trace-preserving points")
    n = family.n_params

    if report.moduli_rows is not None:
        R, W = report.moduli_rows, report.decoupling

        def sampler(rng: np.random.Generator, count: int) -> list[np.ndarray]:
            costs = [rng.uniform(0.1, 1.0, n) for _ in range(max(6, count // 2))]
            vertices = [v for v in _vertex(R, costs) if isinstance(v, np.ndarray)]
            if not vertices:
                vertices = [np.abs(np.asarray(report.solutions[0])) ** 2]
            return [_mix(vertices, W, rng) for _ in range(count)]

        return sampler

    base = [np.asarray(c, dtype=complex) for c in report.solutions]

    def sampler(rng: np.random.Generator, count: int) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        attempts = 0
        while len(out) < count and attempts < 10 * count:
            attempts += 1
            c = base[attempts % len(base)]
            x0 = np.concatenate([c.real, c.imag]) + 0.2 * rng.standard_normal(2 * n)
            cc = _converge(x0, family, tol_tp)
            if cc is not None:
                out.append(_gauge_phase(cc))
        if not out:
            raise EmptyManifold("could not re-converge onto the solution set")
        return out

    return sampler
