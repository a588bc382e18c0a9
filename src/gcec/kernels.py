"""Covariance constraints as linear systems, and their joint nullspace.

A candidate Kraus family {A_1..A_K} is stored as one stacked vector of
length K*d^2 (row-major within each operator).  For every group generator g
the covariance condition

    D2(g)^dag A_k D1(g) = sum_l Omega(g)_{kl} A_l

is linear in that vector.  For the Lie case the condition is the commutator
analogue

    D1(T) A_k - A_k D2(T) = sum_l Omega(T)_{lk} A_l

for each algebra basis element T in (L+, L-, Lz).  Note the column-index
contraction on Omega in the Lie case: with the descending-m basis used by
the catalog this is exactly what makes ladder covariance reproduce the
standard spherical-tensor component relations.  Channels covariant for the
full (infinite) group follow by linearity/exponentiation, so the generator
systems are enough.  :func:`_defect` is the one place either relation is
written down; the system matrices and :func:`covariance_residual` both
evaluate it.

Schur blocks.  The representation acting on the rows of A_k (D2 for
discrete groups, D1 for Lie groups) and the one acting on its columns (D1,
resp. D2) are each split into the finest index partition that every one of
their generators maps into itself, read off the generators' nonzero
pattern (never from the labels, so a densely rotated representation is
simply one block); ``Rep.split`` computes this once per representation
object, so a sweep splits each representation once.  The relations then
decouple: the entries A_k[I, J] for a row block I and a column block J,
over all k, form an independent system of K*|I|*|J| unknowns.  Each block is factored by a thin SVD, and
the instance's kernel is the direct sum of the block kernels, embedded into
K*d^2 space in (row block, column block) order.

Rank threshold.  A singular value counts as zero when it is at most
``tol_kernel * max(1, sigma_max)`` of its block; a block whose matrices are
identically zero is unconstrained (identity basis).  The absolute floor
matters for blocks made only of roundoff, such as a Z2 character stored as
-1 + 1.2e-16j, whose whole kernel a purely relative rule would drop.

Cache.  A sweep meets the same (row irrep, column irrep, Omega) block in
many instances.  :func:`joint_nullspace` accepts a plain dict, keyed by the
block's content (kind, tolerance and generator bytes), and factors each
distinct block once.  Cached and fresh results are identical, so the cache
never changes output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, LengthMismatch
from .groups import Irrep
from .reps import Rep

DEFAULT_TOL_KERNEL = 1e-10


def _defect(kind: str, row_g, col_g, om, X: np.ndarray) -> np.ndarray:
    """Covariance defect of Kraus stacks ``X`` (shape (..., K, r, c)) for one
    generator: ``row_g`` acts on the rows of each A_k, ``col_g`` on its
    columns and ``om`` on the Kraus index."""
    if kind == "discrete":
        return row_g.conj().T @ X @ col_g - np.einsum("kl,...lrc->...krc", om, X)
    return row_g @ X - X @ col_g - np.einsum("lk,...lrc->...krc", om, X)


@dataclass(frozen=True)
class CovarianceBlock:
    """The covariance relations restricted to the entries A_k[rows, cols].

    ``shape`` is (K, len(rows), len(cols)); ``index`` gives the positions of
    the block's K*r*c entries in the stacked K*d^2 vector, in the block's
    own row-major (k, row, column) order.  ``row_gens`` and ``col_gens`` are
    the generator sub-blocks acting on the rows and the columns,
    ``omega_gens`` the channel label's generators, and ``content`` the bytes
    of those three tuples.
    """

    kind: str
    shape: tuple[int, int, int]
    index: np.ndarray
    row_gens: tuple[np.ndarray, ...]
    col_gens: tuple[np.ndarray, ...]
    omega_gens: tuple[np.ndarray, ...]
    content: tuple[tuple[bytes, ...], ...]

    @property
    def matrices(self) -> tuple[np.ndarray, ...]:
        """One (K r c) x (K r c) matrix per generator; column i is the
        defect of the i-th unit vector."""
        n = self.index.size
        units = np.eye(n, dtype=complex).reshape(n, *self.shape)
        return tuple(
            _defect(self.kind, a, b, om, units).reshape(n, n).T
            for a, b, om in zip(self.row_gens, self.col_gens, self.omega_gens)
        )

    def key(self, tol_kernel: float) -> tuple:
        """Cache key: equal keys mean equal systems, hence equal kernels."""
        return (self.kind, tol_kernel, *self.content)


@dataclass(frozen=True)
class CovarianceSystem:
    """The Schur blocks of one instance, in (row block, column block) order."""

    blocks: tuple[CovarianceBlock, ...]
    K: int
    d: int


@dataclass(frozen=True)
class KernelFamily:
    """Orthonormal basis of the joint nullspace: a CP-map family.

    ``basis`` has shape (K*d^2, n_params); column j is the j-th basis vector.
    """

    basis: np.ndarray
    K: int
    d: int

    @property
    def n_params(self) -> int:
        return self.basis.shape[1]

    def vector_at(self, coeffs: np.ndarray) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (self.n_params,):
            raise LengthMismatch(
                f"expected {self.n_params} coefficients, got shape {coeffs.shape}"
            )
        return self.basis @ coeffs

    def kraus_at(self, coeffs: np.ndarray) -> list[np.ndarray]:
        return vec_to_kraus(self.vector_at(coeffs), self.K, self.d)


def vec_to_kraus(v: np.ndarray, K: int, d: int) -> list[np.ndarray]:
    """Split a length-K*d^2 vector into K row-major d x d matrices."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != K * d * d:
        raise LengthMismatch(f"expected length {K * d * d}, got {v.size}")
    return [chunk.copy() for chunk in v.reshape(K, d, d)]


def kraus_to_vec(matrices) -> np.ndarray:
    """Inverse of :func:`vec_to_kraus` (row-major concatenation)."""
    return np.concatenate([np.asarray(m, dtype=complex).reshape(-1) for m in matrices])


def _rows_cols(kind: str, D1: Rep, D2: Rep) -> tuple[Rep, Rep]:
    """(representation acting on the rows of A_k, the one on its columns)."""
    return (D2, D1) if kind == "discrete" else (D1, D2)


def _build_system(kind: str, D1: Rep, D2: Rep, omega: Irrep) -> CovarianceSystem:
    if D1.dim != D2.dim:
        raise DimMismatch(f"input/output rep dims differ: {D1.dim} vs {D2.dim}")
    d, K = D1.dim, omega.dim
    row_rep, col_rep = _rows_cols(kind, D1, D2)
    omega_gens = tuple(np.asarray(g, dtype=complex) for g in omega.generator_matrices)
    omega_bytes = tuple(g.tobytes() for g in omega_gens)
    kraus_offsets = np.arange(K)[:, None, None] * d * d
    blocks = tuple(
        CovarianceBlock(
            kind=kind,
            shape=(K, rows.index.size, cols.index.size),
            index=(kraus_offsets + rows.index[:, None] * d + cols.index).reshape(-1),
            row_gens=rows.generators,
            col_gens=cols.generators,
            omega_gens=omega_gens,
            content=(rows.content, cols.content, omega_bytes),
        )
        for rows in row_rep.split
        for cols in col_rep.split
    )
    return CovarianceSystem(blocks=blocks, K=K, d=d)


def build_discrete_system(D1: Rep, D2: Rep, omega: Irrep) -> CovarianceSystem:
    """Blocks enforcing D2(g)^dag A_k D1(g) = sum_l Omega_kl(g) A_l; rows of
    A_k follow D2 and columns follow D1."""
    return _build_system("discrete", D1, D2, omega)


def build_lie_system(D1: Rep, D2: Rep, omega: Irrep) -> CovarianceSystem:
    """Blocks enforcing D1(T) A_k - A_k D2(T) = sum_l Omega(T)_lk A_l for each
    algebra basis element T; rows of A_k follow D1 and columns follow D2."""
    return _build_system("lie", D1, D2, omega)


def leading_entry(v: np.ndarray) -> tuple[int, complex]:
    """(index, unit phase) of the first entry of ``v`` whose magnitude exceeds
    1e-8 of the largest; a zero vector gives (len(v), 1), after every index."""
    mags = np.abs(v)
    top = mags.max()
    if top == 0.0:
        return v.size, 1.0 + 0j
    lead = int(np.argmax(mags > 1e-8 * top))
    return lead, v[lead] / abs(v[lead])


def _gauge_fix_columns(basis: np.ndarray) -> np.ndarray:
    """Rotate each column's phase so its first significant entry is real > 0."""
    fixed = basis.copy()
    for j in range(fixed.shape[1]):
        lead, phase = leading_entry(fixed[:, j])
        if lead < fixed.shape[0]:
            fixed[:, j] = fixed[:, j] * np.conj(phase)
    return fixed


def _block_nullspace(block: CovarianceBlock, tol_kernel: float) -> np.ndarray:
    """Gauge-fixed orthonormal kernel basis of one block's stacked system."""
    stacked = np.vstack(block.matrices)
    if not np.any(stacked):
        # Unconstrained block: every choice of its entries is covariant.
        return np.eye(block.index.size, dtype=complex)
    _, svals, vh = np.linalg.svd(stacked, full_matrices=False)
    rank = int(np.sum(svals > tol_kernel * max(1.0, svals[0])))
    return _gauge_fix_columns(vh[rank:].conj().T)


def joint_nullspace(
    system: CovarianceSystem,
    tol_kernel: float = DEFAULT_TOL_KERNEL,
    cache: dict | None = None,
) -> KernelFamily:
    """Orthonormal basis of the intersection of all generators' kernels.

    The direct sum of the block kernels, each block's basis placed at the
    block's entries.  ``cache`` (a dict owned by the caller, typically one
    per sweep) holds block bases by content, so a block repeated across
    instances is factored once; without one, repeats within this instance
    still are.  An empty basis is a valid result and means
    no covariant CP map exists for these labels.
    """
    if cache is None:
        cache = {}
    parts = []
    for block in system.blocks:
        key = block.key(tol_kernel)
        if key not in cache:
            cache[key] = _block_nullspace(block, tol_kernel)
        parts.append(cache[key])
    basis = np.zeros((system.K * system.d * system.d, sum(p.shape[1] for p in parts)), dtype=complex)
    at = 0
    for block, part in zip(system.blocks, parts):
        basis[block.index, at : at + part.shape[1]] = part
        at += part.shape[1]
    return KernelFamily(basis=basis, K=system.K, d=system.d)


def covariance_residual(kraus, D1: Rep, D2: Rep, omega: Irrep, kind: str) -> float:
    """Worst-case Frobenius defect of the covariance relations for ``kraus``,
    over generators and Kraus slots."""
    X = np.asarray(kraus, dtype=complex)
    row_rep, col_rep = _rows_cols(kind, D1, D2)
    gens = zip(row_rep.generator_matrices, col_rep.generator_matrices, omega.generator_matrices)
    return max(
        (float(np.linalg.norm(_defect(kind, a, b, om, X), axis=(1, 2)).max()) for a, b, om in gens),
        default=0.0,
    )
