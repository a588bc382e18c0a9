"""Extremality of channels.

A channel with Kraus operators {A_k} is extreme in the convex body of
channels exactly when the K^2 products {A_k^dag A_l} are linearly
independent.  We stack their vectorizations into a d^2 x K^2 matrix and
read the numerical rank off its singular values.  A generalized-extreme
channel (K <= d) that fails the test is quasi-extreme.

:func:`test_extreme` tests an (S, K, d, d) stack of Kraus sets ``BATCH``
sets at a time, with batched products and one batched SVD per batch,
which bounds the memory that a large stack's products take; each set's
singular values are those of its own SVD bit for bit, and a set's
results are read off the :class:`RankTest` arrays at its index.  The test
is only meaningful for a channel: :meth:`RankTest.check_channels`
refuses a slice of the stack that holds a set whose TP residual exceeds
``TOL_TP``, for sweep samples and stored sets alike, and a sweep
manifest records that value as ``tolerances["tp"]``.
:func:`test_extreme` is the package's one rank count of the Kraus
products: the sweep's records, ``classify`` and the TP solver's choice
of canonical vertex all call it.  A sweep runs one test per channel
label, over every sample it emits under that label.

Spin path.  For an SO3/SU2 set labelled by the irrep Omega (dimension K, in
the catalog's descending-m basis), the product map e_k (x) e_l ->
vec(A_k^dag A_l) intertwines conj(Omega) (x) Omega with conjugation by the
input representation, both unitary.  conj(Omega) (x) Omega splits into the
spins L = 0, ..., K - 1, each once, so by Schur's lemma the map's Gram
matrix is a scalar sigma_L^2 on each spin-L component.  Each component
holds one weight-0 vector, a diagonal matrix h_L: the eigenvector of the
sl2 Casimir on diagonal K x K matrices with eigenvalue L(L + 1)
(:func:`spin_basis`).  So sigma_L = ||sum_k (h_L)_k vec(A_k^dag A_k)||,
and the d^2 x K^2 spectrum is each sigma_L repeated 2L + 1 times: K
products and K norms per set instead of K^2 products and an SVD.  Given
``spins``, :func:`test_extreme` takes that path; the values and the rank
equal the SVD's up to roundoff, and each set's values are again its own,
bit for bit.  Finite groups and ``classify``, which must not trust a
stored label, keep the SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import tp_residuals
from .errors import BadTolerance, NotTracePreserving

TOL_TP = 1e-8  # largest TP residual of a channel
DEFAULT_TOL_RANK = 1e-8
BATCH = 64  # sets per batch of Kraus products in test_extreme


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


def spin_basis(generators) -> np.ndarray:
    """The (K, K) real orthogonal matrix whose column L is h_L, of the sl2
    irrep with ``generators`` (L+, L-, Lz) in a basis of distinct weights:
    the eigenvectors of D -> diag(1/2 ([L+, [L-, D]] + [L-, [L+, D]])) on
    diagonal K x K matrices, whose eigenvalues are L(L + 1), ascending (see
    "Spin path")."""
    raising, lowering, _ = generators
    K = raising.shape[0]

    def ad(x, y):
        return x @ y - y @ x

    units = np.zeros((K, K, K))
    units[np.arange(K), np.arange(K), np.arange(K)] = 1.0
    casimir = [np.diagonal(ad(raising, ad(lowering, e)) + ad(lowering, ad(raising, e))).real / 2 for e in units]
    return np.linalg.eigh(np.array(casimir).T)[1]


def test_extreme(stack: np.ndarray, tol_rank: float = DEFAULT_TOL_RANK, spins: np.ndarray | None = None) -> RankTest:
    """Rank test on the Kraus products of each set of an (S, K, d, d)
    stack.  Per set, the columns vec(A_k^dag A_l), k-major, form a
    d^2 x K^2 matrix; a batched SVD gives its singular values, and the
    rank counts those above ``tol_rank`` times the largest.  With
    ``spins``, the :func:`spin_basis` of the sets' SO3/SU2 channel label,
    the values are the spin-component norms instead (see "Spin path").  A
    set whose products are not finite gets NaN values and rank 0.  The
    sets go through ``BATCH`` at a time, so a sweep's per-label stack never
    has all its products in memory at once."""
    S, K, d, _ = stack.shape
    batches = [stack[at : at + BATCH] for at in range(0, S, BATCH)] or [stack]
    svals = np.concatenate([_spectrum(batch, spins) for batch in batches])
    top = svals[:, :1]
    rank = np.where(top[:, 0] > 0, np.sum(svals > tol_rank * top, axis=1), 0)
    # K^2 operators cannot be independent in a d^2-dimensional space.
    extreme = (rank == K * K) & (K <= d)
    tp = np.concatenate([tp_residuals(batch) for batch in batches])
    return RankTest(tp_residual=tp, singular_values=svals, rank=rank, extreme=extreme)


def _spectrum(stack: np.ndarray, spins: np.ndarray | None) -> np.ndarray:
    """The descending singular values of each set's product stack, by SVD,
    or from the spin-component norms given ``spins``: shape (S, min(d^2, K^2))."""
    S, K, d, _ = stack.shape
    if spins is None:
        products = stack.conj().swapaxes(-1, -2)[:, :, None] @ stack[:, None]
        return finite_batch(np.linalg.svd, products.reshape(S, K * K, d * d).swapaxes(-1, -2), compute_uv=False)
    diagonal = (stack.conj().swapaxes(-1, -2) @ stack).reshape(S, K, d * d)
    norms = np.linalg.norm(spins.T @ diagonal, axis=-1)  # (S, K): sigma_L at column L
    svals = np.sort(np.repeat(norms, 2 * np.arange(K) + 1, axis=1), axis=1)[:, ::-1][:, : min(K * K, d * d)]
    svals[~np.isfinite(norms).all(axis=1)] = np.nan
    return svals
