"""Extremality of channels.

A channel with Kraus operators {A_k} is extreme in the convex body of
channels exactly when the K^2 products {A_k^dag A_l} are linearly
independent.  We stack their vectorizations into a d^2 x K^2 matrix and
read the numerical rank off its singular values.  A generalized-extreme
channel (K <= d) that fails the test is quasi-extreme.

:func:`test_extreme` tests an (S, K, d, d) stack of Kraus sets at once,
with batched products and one batched SVD; each set's singular values are
those of its own SVD bit for bit, and :meth:`RankTest.verdict` gives one
set's verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import DEFAULT_TOL_RANK, product_rank, tp_residuals
from .errors import NotTracePreserving


@dataclass(frozen=True)
class ExtremalityVerdict:
    is_extreme: bool
    rank: int
    expected_rank: int  # K^2
    min_singular_value: float
    reason: str = ""


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
