"""Extremality of channels.

A channel with Kraus operators {A_k} is extreme in the convex body of
channels exactly when the K^2 products {A_k^dag A_l} are linearly
independent.  We stack their vectorizations into a d^2 x K^2 matrix and
read the numerical rank off its singular values.  A generalized-extreme
channel (K <= d) that fails the test is quasi-extreme.

:func:`test_extreme` tests an (S, K, d, d) stack of Kraus sets at once,
with batched products and one batched SVD; each set's singular values are
those of its own SVD bit for bit, and a set's results are read off the
:class:`RankTest` arrays at its index.  The test is only meaningful for a
channel: :meth:`RankTest.check_channels` refuses a slice of the stack that
holds a set whose TP residual exceeds ``TOL_TP``, for sweep samples and
stored sets alike, and a sweep manifest records that value as
``tolerances["tp"]``.  :func:`test_extreme` is the package's one rank
count of the Kraus products: the sweep's records, ``classify`` and the TP
solver's choice of canonical vertex all call it.  A sweep runs one test per
label class, over the representative's samples and every member's moved
samples together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import tp_residuals
from .errors import BadTolerance, NotTracePreserving

TOL_TP = 1e-8  # largest TP residual of a channel
DEFAULT_TOL_RANK = 1e-8


def check_tol_rank(tol_rank: float) -> None:
    """Raise :class:`gcec.errors.BadTolerance` unless ``tol_rank`` lies in
    (0, 1).  The rank counts singular values above ``tol_rank`` times the
    largest, so a value of 0 or less counts roundoff as rank, 1 or more
    counts nothing, and NaN fails every comparison."""
    if not 0.0 < tol_rank < 1.0:  # NaN fails too
        raise BadTolerance(f"tol_rank must lie in (0, 1), got {tol_rank!r}")


@dataclass(frozen=True)
class RankTest:
    """The rank test of a stack of S Kraus sets with K operators on a
    dimension-d system: per set, its TP residual, the singular values of
    its product stack (descending), its rank, the count of those above
    ``tol_rank`` times the largest, and whether it passes the test."""

    tp_residual: np.ndarray  # (S,)
    singular_values: np.ndarray  # (S, min(d^2, K^2))
    rank: np.ndarray  # (S,)
    extreme: np.ndarray  # (S,) bool: K <= d and rank K^2

    @property
    def is_extreme(self) -> bool:
        """Whether every set of the stack is extreme."""
        return bool(self.extreme.all())

    def check_channels(self, at) -> None:
        """Raise ``NotTracePreserving`` at the first set of ``at`` (an index or slice) that is no channel."""
        for residual in np.atleast_1d(self.tp_residual[at]):
            if not residual <= TOL_TP:  # a NaN residual fails too
                raise NotTracePreserving(f"trace-preservation residual {residual:.3e} exceeds {TOL_TP:.1e}")


def finite_batch(fn, batch: np.ndarray, **kwargs) -> np.ndarray:
    """``fn(batch, **kwargs)`` of a batched call such as ``np.linalg.svd``,
    which raises on NaN input, with NaN values for each non-finite matrix."""
    finite = np.isfinite(batch).all(axis=(-2, -1))
    if finite.all():
        return fn(batch, **kwargs)
    values = fn(batch[finite], **kwargs)
    out = np.full((len(batch), *values.shape[1:]), np.nan)
    out[finite] = values
    return out


def test_extreme(stack: np.ndarray, tol_rank: float = DEFAULT_TOL_RANK) -> RankTest:
    """Rank test on the Kraus products of each set of an (S, K, d, d)
    stack.  Per set, the columns vec(A_k^dag A_l), k-major, form a
    d^2 x K^2 matrix; one batched SVD gives its singular values, and the
    rank counts those above ``tol_rank`` times the largest.  A set whose
    products are not finite gets NaN values and rank 0."""
    S, K, d, _ = stack.shape
    products = stack.conj().swapaxes(-1, -2)[:, :, None] @ stack[:, None]
    svals = finite_batch(np.linalg.svd, products.reshape(S, K * K, d * d).swapaxes(-1, -2), compute_uv=False)
    top = svals[:, :1]
    rank = np.where(top[:, 0] > 0, np.sum(svals > tol_rank * top, axis=1), 0)
    # K^2 operators cannot be independent in a d^2-dimensional space.
    extreme = (rank == K * K) & (K <= d)
    return RankTest(tp_residual=tp_residuals(stack), singular_values=svals, rank=rank, extreme=extreme)
