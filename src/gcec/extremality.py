"""Extremality of channels, and sweeps for quasi-extreme loci.

A channel with Kraus operators {A_k} is extreme in the convex body of
channels exactly when the K^2 products {A_k^dag A_l} are linearly
independent.  We stack their vectorizations into a d^2 x K^2 matrix and
read the numerical rank off its singular values.  A generalized-extreme
channel (K <= d) that fails the test is quasi-extreme.

:func:`test_extreme` tests an (S, K, d, d) stack of Kraus sets at once,
with batched products and one batched SVD; each set's singular values are
those of its own SVD bit for bit, and :meth:`RankTest.verdict` gives one
set's verdict.

Since quasi-extreme points form measure-zero loci inside solution
families, random sampling alone cannot find them; :func:`sweep_family`
therefore follows up with a local minimization of the smallest product
singular value over the family's moduli/phase parameterization and reports
the refined minimizers.  That search is the package's only use of scipy,
which :func:`_refine_rank_drop` imports when it runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import DEFAULT_TOL_RANK, product_rank, product_stack, tp_residuals
from .errors import NotTracePreserving
from .kernels import KernelFamily
from .tp import TpSolveReport, solution_sampler


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


@dataclass(frozen=True)
class RankTest:
    """The rank test of a stack of S Kraus sets with K operators on a
    dimension-d system: per set, its TP residual, the singular values of
    its product stack (descending), and its rank, the count of those above
    ``tol_rank`` times the largest."""

    K: int
    d: int
    tol_tp: float
    tp_residual: np.ndarray  # (S,)
    singular_values: np.ndarray  # (S, min(d^2, K^2))
    rank: np.ndarray  # (S,)

    @property
    def is_extreme(self) -> bool:
        """Whether every set of the stack is extreme."""
        return self.K <= self.d and bool(np.all(self.rank == self.K * self.K))

    def verdict(self, i: int) -> ExtremalityVerdict:
        """Set ``i``'s verdict; ``NotTracePreserving`` when it is no channel."""
        if not self.tp_residual[i] <= self.tol_tp:  # a NaN residual fails too
            raise NotTracePreserving(
                f"trace-preservation residual {self.tp_residual[i]:.3e} exceeds {self.tol_tp:.1e}"
            )
        K, d, rank = self.K, self.d, int(self.rank[i])
        return ExtremalityVerdict(
            # K^2 operators cannot be independent in a d^2-dimensional space.
            is_extreme=K <= d and rank == K * K,
            rank=rank,
            expected_rank=K * K,
            min_singular_value=float(self.singular_values[i, -1]),
            reason="" if K <= d else f"{K} Kraus operators on a dimension-{d} system; not generalized extreme",
        )


def test_extreme(
    stack: np.ndarray,
    tol_rank: float = DEFAULT_TOL_RANK,
    tol_tp: float = 1e-8,
) -> RankTest:
    """Rank test on the Kraus products of each set of an (S, K, d, d)
    stack, with one batched SVD; only meaningful for channels, so
    :meth:`RankTest.verdict` refuses a set whose TP residual exceeds
    ``tol_tp``."""
    _, K, d, _ = stack.shape
    svals, rank = product_rank(stack, tol_rank)
    return RankTest(K=K, d=d, tol_tp=tol_tp, tp_residual=tp_residuals(stack), singular_values=svals, rank=rank)


def _sv_ratios(singular_values: np.ndarray) -> np.ndarray:
    """sigma_min / sigma_max per row, 0 for an all-zero row."""
    top = singular_values[:, 0]
    return np.divide(singular_values[:, -1], top, out=np.zeros_like(top), where=top > 0)


def _refine_rank_drop(
    family: KernelFamily,
    report: TpSolveReport,
    seeds: list[np.ndarray],
    tol_rank: float,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Minimize the relative K^2-th product singular value over the
    trace-preserving manifold in (moduli, phase) coordinates."""
    import scipy.linalg
    import scipy.optimize

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
            svals = np.linalg.svd(product_stack(family.kraus_at(c)[None]), compute_uv=False)
            return float(_sv_ratios(svals)[0])

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
    test = test_extreme(np.stack([family.kraus_at(c) for c in grid]), tol_rank)
    verdicts = [test.verdict(i) for i in range(len(grid))]
    ratios = _sv_ratios(test.singular_values)
    drops = [c for c, v, r in zip(grid, verdicts, ratios) if not v.is_extreme and r <= tol_rank / 10.0]
    if tp_report.moduli_rows is not None:
        seeds = [grid[i] for i in np.argsort(ratios)]
        for c_min in _refine_rank_drop(family, tp_report, seeds, tol_rank, rng):
            if not test_extreme(family.kraus_at(c_min)[None], tol_rank).verdict(0).is_extreme:
                drops.append(c_min)
    return SweepResult(grid=grid, verdicts=verdicts, rank_drop_points=drops)
