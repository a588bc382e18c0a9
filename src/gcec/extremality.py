"""Extremality of channels, and sweeps for quasi-extreme loci.

A channel with Kraus operators {A_k} is extreme in the convex body of
channels exactly when the K^2 products {A_k^dag A_l} are linearly
independent.  We stack their vectorizations into a d^2 x K^2 matrix and
read the numerical rank off its singular values.  A generalized-extreme
channel (K <= d) that fails the test is quasi-extreme.  Since quasi-extreme
points form measure-zero loci inside solution families, random sampling
alone cannot find them; :func:`sweep_family` therefore follows up with a
local minimization of the smallest product singular value over the family's
moduli/phase parameterization and reports the refined minimizers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize

from .channels import KrausSet
from .errors import NotTracePreserving
from .kernels import KernelFamily
from .tp import TpSolveReport, solution_sampler

DEFAULT_TOL_RANK = 1e-8


@dataclass(frozen=True)
class ExtremalityVerdict:
    is_extreme: bool
    rank: int
    expected_rank: int  # K^2
    min_singular_value: float
    reason: str = ""


@dataclass
class SweepResult:
    grid: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    rank_drop_points: list = field(default_factory=list)


def product_stack(kraus: KrausSet) -> np.ndarray:
    """The d^2 x K^2 matrix whose columns are vec(A_k^dag A_l)."""
    cols = [
        (a.conj().T @ b).reshape(-1) for a in kraus.matrices for b in kraus.matrices
    ]
    return np.array(cols).T


def test_extreme(
    kraus: KrausSet,
    tol_rank: float = DEFAULT_TOL_RANK,
    tol_tp: float = 1e-8,
) -> ExtremalityVerdict:
    """Rank test on the Kraus products; only meaningful for channels."""
    tp_res = kraus.tp_residual()
    if tp_res > tol_tp:
        raise NotTracePreserving(
            f"trace-preservation residual {tp_res:.3e} exceeds {tol_tp:.1e}"
        )
    K, d = kraus.K, kraus.d
    stack = product_stack(kraus)
    svals = np.linalg.svd(stack, compute_uv=False)
    rank = int(np.sum(svals > tol_rank * svals[0])) if svals[0] > 0 else 0
    if K > d:
        # K^2 operators cannot be independent in a d^2-dimensional space.
        return ExtremalityVerdict(
            is_extreme=False,
            rank=rank,
            expected_rank=K * K,
            min_singular_value=float(svals[-1]),
            reason=f"{K} Kraus operators on a dimension-{d} system; not generalized extreme",
        )
    return ExtremalityVerdict(
        is_extreme=(rank == K * K),
        rank=rank,
        expected_rank=K * K,
        min_singular_value=float(svals[-1]),
    )


def _product_sv_ratio(family: KernelFamily, coeffs: np.ndarray) -> float:
    stack = product_stack(KrausSet.from_matrices(family.kraus_at(coeffs)))
    svals = np.linalg.svd(stack, compute_uv=False)
    return float(svals[-1] / svals[0]) if svals[0] > 0 else 0.0


def _refine_rank_drop(
    family: KernelFamily,
    report: TpSolveReport,
    seeds: list[np.ndarray],
    tol_rank: float,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Minimize the relative K^2-th product singular value over the
    trace-preserving manifold in (moduli, phase) coordinates."""
    R, W = report.moduli_rows, report.decoupling
    n = family.n_params
    null = scipy.linalg.null_space(R)
    n_free = null.shape[1]
    if n_free == 0 and n <= 1:
        return []

    def unpack(x, t0):
        t = t0 + (null @ x[:n_free] if n_free else 0.0)
        if t.min() < -1e-12:
            return None
        u = np.sqrt(np.clip(t, 0.0, None)).astype(complex)
        phases = np.concatenate([[0.0], x[n_free:]])
        return W @ (u * np.exp(1j * phases))

    def objective_for(t0):
        def f(x):
            c = unpack(x, t0)
            if c is None:
                return 1.0
            return _product_sv_ratio(family, c)

        return f

    found: list[np.ndarray] = []
    starts = seeds[:1] + [seeds[i] for i in rng.choice(len(seeds), size=min(2, len(seeds)), replace=False)]
    for c_start in starts:
        u = W.conj().T @ np.asarray(c_start, dtype=complex)
        t0 = np.abs(u) ** 2
        x0 = np.zeros(n_free + n - 1)
        x0[n_free:] = np.angle(u[1:]) - np.angle(u[0]) if n > 1 else []
        res = scipy.optimize.minimize(
            objective_for(t0),
            x0,
            method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-16, "maxiter": 5000, "maxfev": 8000},
        )
        if res.fun <= tol_rank:
            c_min = unpack(res.x, t0)
            if c_min is not None:
                found.append(c_min)
    return found


def sweep_family(
    family: KernelFamily,
    tp_report: TpSolveReport,
    grid_size: int = 32,
    tol_rank: float = DEFAULT_TOL_RANK,
    seed=0,
) -> SweepResult:
    """Classify sampled trace-preserving points and hunt for rank drops.

    Random grid points that already fail the rank test are re-verified at a
    ten-times tightened threshold before being reported; when the family
    carries a moduli parameterization, a local minimization localizes loci
    that random sampling cannot hit.  Raises ``EmptyManifold`` when the
    report holds no solutions.
    """
    sampler = solution_sampler(family, tp_report)
    rng = np.random.default_rng(seed)
    grid = [np.asarray(c, dtype=complex) for c in tp_report.solutions]
    if len(grid) < grid_size:
        grid += sampler(rng, grid_size - len(grid))
    verdicts = [
        test_extreme(KrausSet.from_matrices(family.kraus_at(c)), tol_rank)
        for c in grid
    ]
    drops = [
        c
        for c, v in zip(grid, verdicts)
        if not v.is_extreme and _product_sv_ratio(family, c) <= tol_rank / 10.0
    ]
    if tp_report.moduli_rows is not None:
        order = np.argsort([_product_sv_ratio(family, c) for c in grid])
        seeds = [grid[i] for i in order]
        for c_min in _refine_rank_drop(family, tp_report, seeds, tol_rank, rng):
            verdict = test_extreme(
                KrausSet.from_matrices(family.kraus_at(c_min)), tol_rank
            )
            if not verdict.is_extreme:
                drops.append(c_min)
    return SweepResult(grid=grid, verdicts=verdicts, rank_drop_points=drops)
