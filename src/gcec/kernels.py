"""Covariance constraints as linear systems, and their joint nullspace.

A candidate Kraus family {A_1..A_K} is stored as one stacked vector of
length K*d^2 (row-major within each operator); :meth:`KernelFamily.kraus_at`
returns it as the (K, d, d) array that every check takes.  For every group
generator g the covariance condition

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

Weight space.  A Lie generator whose row, column and Omega sub-blocks are
all diagonal relates each unknown to itself alone: for Lz in the catalog's
descending-m basis the relation reads (m_i - m'_j - mu_k) A_k[i, j] = 0, so
every entry of nonzero weight is forced to zero.  The weight is the
generator's defect of the all-ones stack, so the convention stays written
once in :func:`_defect`.  A block is factored only on its entries of weight
zero (:func:`_free_entries`): :func:`_columns` builds its matrices on those
columns alone, as the defects of those unit vectors, and the kernel is
embedded back at them.  By the Wigner-Eckart theorem that leaves at most
K*min(r, c) of the K*r*c unknowns, and the forced zeros are exact; a block
with no free entry returns its empty basis without building anything.  On
the free entries the rows of a Lie block vanish except where a generator
moves weight 0 to nonzero weight: the rows of a diagonal generator (Lz,
a *weight* generator) are all zero and are not built, and L+ and L- reach
only the entries of weight +1 and -1.  Only those rows, the nonzero ones,
are factored.  Both cuts apply to Lie blocks only, so discrete
blocks, diagonal Zn characters included, factor every row and column and
keep the bytes of a plain SVD; a densely rotated Lie representation has
no diagonal generator and keeps every column too.

Rank threshold.  A singular value counts as zero when it is at most
``TOL_KERNEL * max(1, sigma_max)`` of its block; a block whose matrices are
identically zero is unconstrained (identity basis).  The absolute floor
matters for blocks made only of roundoff, such as a Z2 character stored as
-1 + 1.2e-16j, whose whole kernel a purely relative rule would drop.

Cache.  A sweep meets the same (row irrep, column irrep, Omega) block in
many instances.  :func:`joint_nullspace` accepts a plain dict, keyed by the
block's content (kind and generator bytes), and factors each
distinct block once.  A :class:`CovarianceSystem` holds only its parts and
Omega, so a block is named by the system and its (row part, column part)
pair: :meth:`CovarianceSystem.key` reads the key off the parts' ``content``
and Omega's bytes, the block's matrices are built only on a cache miss, and
the basis is assembled from each pair's entry positions.  Cached and fresh
results are identical, so the cache never changes output.
:func:`kernel_dims` reads the kernel dimensions of every pair of a list of
parts through the same cache, which is how a sweep counts each instance's
parameters without building its system.

Layout.  The family records where each basis column came from: its row
part, its column part and its index in that block's kernel.  The column
part is the input part, the representation that Xi(c) = sum_k A_k^dag A_k
acts on, which :mod:`gcec.tp` splits by Schur's lemma.  That split needs
every input part irreducible and parts of different content inequivalent,
which :func:`_input_defect` checks on the trivial-label blocks between the
parts, through the same cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimMismatch, LengthMismatch
from .groups import Irrep, lie_irrep
from .reps import InvariantBlock, Rep

TOL_KERNEL = 1e-10  # relative, with an absolute floor (see "Rank threshold")


def _defect(kind: str, row_g, col_g, om, X: np.ndarray) -> np.ndarray:
    """Covariance defect of Kraus stacks ``X`` (shape (..., K, r, c)) for one
    generator: ``row_g`` acts on the rows of each A_k, ``col_g`` on its
    columns and ``om`` on the Kraus index."""
    if kind == "discrete":
        return row_g.conj().T @ X @ col_g - np.einsum("kl,...lrc->...krc", om, X)
    return row_g @ X - X @ col_g - np.einsum("lk,...lrc->...krc", om, X)


@dataclass(frozen=True)
class CovarianceSystem:
    """The covariance relations of one instance: the invariant parts of the
    representations acting on the rows and on the columns of each A_k, and
    Omega's generators (complex) with their bytes.  Each (row part, column
    part) pair is one Schur block: :meth:`entries` places its unknowns in
    the stacked vector, :meth:`key` names its content, and
    :func:`_columns` builds its matrices."""

    kind: str
    row_parts: tuple[InvariantBlock, ...]
    col_parts: tuple[InvariantBlock, ...]
    omega_gens: tuple[np.ndarray, ...]
    omega_content: tuple[bytes, ...]
    d: int

    @property
    def K(self) -> int:
        return self.omega_gens[0].shape[0]

    def entries(self, rows: InvariantBlock, cols: InvariantBlock) -> np.ndarray:
        """Positions of the entries A_k[rows, cols] in the stacked K*d^2
        vector, in (k, row, column) order."""
        d = self.d
        offsets = np.arange(self.K)[:, None, None] * d * d
        return (offsets + rows.index[:, None] * d + cols.index).reshape(-1)

    def key(self, rows: InvariantBlock, cols: InvariantBlock) -> tuple:
        """Cache key of the (rows, cols) block: equal keys mean equal
        systems, hence equal kernels."""
        return (self.kind, rows.content, cols.content, self.omega_content)


@dataclass(frozen=True)
class KernelFamily:
    """Orthonormal basis of the joint nullspace: a CP-map family.

    ``basis`` has shape (K*d^2, n_params); column j is the j-th basis vector.
    ``layout`` has one row per column: the column's row part and input part
    (positions in the system's ``row_parts`` and ``col_parts``) and its
    index in that Schur block's kernel.  The input part is the column part,
    the representation Xi(c) = sum_k A_k^dag A_k acts on; ``inputs`` lists
    the input parts.  ``input_defect`` is None when every input part is
    irreducible and parts of different content are inequivalent, and
    otherwise names the part that is not (see :func:`_input_defect`).
    """

    basis: np.ndarray
    K: int
    d: int
    layout: np.ndarray
    inputs: tuple[InvariantBlock, ...]
    input_defect: str | None

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

    def kraus_at(self, coeffs: np.ndarray) -> np.ndarray:
        """The Kraus operators at ``coeffs``, as one (K, d, d) array."""
        return self.vector_at(coeffs).reshape(self.K, self.d, self.d)


def _rows_cols(kind: str, D1: Rep, D2: Rep) -> tuple[Rep, Rep]:
    """(representation acting on the rows of A_k, the one on its columns)."""
    return (D2, D1) if kind == "discrete" else (D1, D2)


def _build_system(kind: str, D1: Rep, D2: Rep, omega: Irrep) -> CovarianceSystem:
    if D1.dim != D2.dim:
        raise DimMismatch(f"input/output rep dims differ: {D1.dim} vs {D2.dim}")
    row_rep, col_rep = _rows_cols(kind, D1, D2)
    return _system(kind, row_rep.split, col_rep.split, omega.generator_matrices, D1.dim)


def _system(kind: str, row_parts, col_parts, omega_gens, d: int) -> CovarianceSystem:
    omega_gens = tuple(np.asarray(g, dtype=complex) for g in omega_gens)
    return CovarianceSystem(
        kind, tuple(row_parts), tuple(col_parts), omega_gens, tuple(g.tobytes() for g in omega_gens), d
    )


def build_discrete_system(D1: Rep, D2: Rep, omega: Irrep) -> CovarianceSystem:
    """Blocks enforcing D2(g)^dag A_k D1(g) = sum_l Omega_kl(g) A_l; rows of
    A_k follow D2 and columns follow D1."""
    return _build_system("discrete", D1, D2, omega)


def build_lie_system(D1: Rep, D2: Rep, omega: Irrep) -> CovarianceSystem:
    """Blocks enforcing D1(T) A_k - A_k D2(T) = sum_l Omega(T)_lk A_l for each
    algebra basis element T; rows of A_k follow D1 and columns follow D2."""
    return _build_system("lie", D1, D2, omega)


def leading_entries(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column of ``m``: the index of its first entry whose magnitude
    exceeds 1e-8 of the column's largest, and that entry's unit phase; a
    zero column gives (number of rows, 1), after every index."""
    mags = np.abs(m)
    top = mags.max(axis=0)
    lead = np.argmax(mags > 1e-8 * top, axis=0)
    zero = top == 0.0
    # entry by entry: a scalar division rounds differently from the array one,
    # and the kernel bases keep the scalar one's bytes
    phase = np.array([1.0 + 0j if z else m[i, j] / abs(m[i, j]) for j, (i, z) in enumerate(zip(lead, zero))])
    return np.where(zero, m.shape[0], lead), phase


def gauge_fix_columns(basis: np.ndarray) -> np.ndarray:
    """Rotate each column's phase so its first significant entry is real > 0."""
    return basis * np.conj(leading_entries(basis)[1])


def _columns(
    system: CovarianceSystem, rows: InvariantBlock, cols: InvariantBlock, entries: np.ndarray, weights: bool = True
):
    """One matrix per generator: the columns at ``entries`` of the (rows,
    cols) block's system, whose column i is the defect of the i-th unit
    vector.  ``entries`` are positions in the block's own (k, row, column)
    order, and only their unit vectors are built.  ``weights=False`` leaves
    out the weight generators (:func:`_is_weight`), whose matrices vanish
    on the free entries."""
    shape = (system.K, rows.index.size, cols.index.size)
    n, m = int(np.prod(shape)), entries.size
    units = np.zeros((m, n), dtype=complex)
    units[np.arange(m), entries] = 1.0
    units = units.reshape(m, *shape)
    return tuple(
        _defect(system.kind, a, b, om, units).reshape(m, n).T
        for a, b, om in zip(rows.generators, cols.generators, system.omega_gens)
        if weights or not _is_weight(system.kind, a, b, om)
    )


def _is_weight(kind: str, a, b, om) -> bool:
    """Whether a generator of a Lie block, with row, column and Omega
    sub-blocks ``a``, ``b`` and ``om``, has all three diagonal, so that it
    relates each unknown to itself alone (see "Weight space" above)."""
    return kind == "lie" and all(np.count_nonzero(g) == np.count_nonzero(np.diagonal(g)) for g in (a, b, om))


def _free_entries(system: CovarianceSystem, rows: InvariantBlock, cols: InvariantBlock) -> np.ndarray:
    """Positions, in the (rows, cols) block's own order, of the unknowns that
    no weight generator forces to zero (see "Weight space" above); discrete
    blocks keep every entry."""
    shape = (system.K, rows.index.size, cols.index.size)
    free = np.ones(shape, dtype=bool)
    for a, b, om in zip(rows.generators, cols.generators, system.omega_gens):
        if _is_weight(system.kind, a, b, om):
            free &= _defect(system.kind, a, b, om, np.ones(shape, dtype=complex)) == 0
    return np.flatnonzero(free)


def _block_nullspace(system: CovarianceSystem, rows: InvariantBlock, cols: InvariantBlock) -> np.ndarray:
    """Gauge-fixed orthonormal kernel basis of the (rows, cols) block's
    stacked system, factored on the block's free entries only, and for a
    Lie block on its nonzero rows only."""
    free = _free_entries(system, rows, cols)
    if not free.size:
        return np.zeros((system.K * rows.index.size * cols.index.size, 0), dtype=complex)
    # the weight generators' rows vanish on the free entries (a spin-0 block has no other)
    stacked = np.vstack([np.zeros((0, free.size)), *_columns(system, rows, cols, free, weights=False)])
    if system.kind == "lie":  # its zero rows (see "Weight space"); discrete blocks keep their bytes
        stacked = stacked[stacked.any(axis=1)]
    if not np.any(stacked):
        # Unconstrained entries: every choice of them is covariant.
        kernel = np.eye(free.size, dtype=complex)
    else:
        _, svals, vh = np.linalg.svd(stacked, full_matrices=False)
        rank = int(np.sum(svals > TOL_KERNEL * max(1.0, svals[0])))
        kernel = gauge_fix_columns(vh[rank:].conj().T)
    # The forced zeros sit between free entries and never lead a column, so
    # gauge-fixing before embedding is the same as after.
    basis = np.zeros((system.K * rows.index.size * cols.index.size, kernel.shape[1]), dtype=complex)
    basis[free] = kernel
    return basis


def _kernel(system: CovarianceSystem, rows: InvariantBlock, cols: InvariantBlock, cache):
    """The kernel basis of the (rows, cols) Schur block, factored on a
    cache miss only."""
    key = system.key(rows, cols)
    if key not in cache:
        cache[key] = _block_nullspace(system, rows, cols)
    return cache[key]


def kernel_dims(kind: str, parts: tuple[InvariantBlock, ...], omega: Irrep, cache: dict) -> np.ndarray:
    """N[i, j]: the kernel dimension of the Schur block with row part
    ``parts[i]`` and column part ``parts[j]`` under the channel label
    ``omega``, each block read through ``cache`` with the keys and bases of
    :func:`joint_nullspace`.  An instance whose row and column parts are
    copies of these has n_params = a^T N b, for a and b the copies of each
    part among its row and its column parts."""
    system = _system(kind, parts, parts, omega.generator_matrices, 0)  # only its blocks are read
    return np.array([[_kernel(system, rows, cols, cache).shape[1] for cols in parts] for rows in parts], dtype=int)


@lru_cache(maxsize=None)
def _trivial_system(kind: str, num_generators: int, d: int) -> CovarianceSystem:
    """A system with no parts under the catalog's trivial channel label."""
    label = lie_irrep("su2", 1).generator_matrices if kind == "lie" else [np.ones((1, 1))] * num_generators
    return _system(kind, (), (), label, d)


def _input_defect(system: CovarianceSystem, cache: dict) -> str | None:
    """None when every column part of ``system`` is irreducible and parts of
    different content are inequivalent, else a text naming the first part
    that breaks this.

    Read off the trivial-label kernels between the parts: by Schur's lemma
    the intertwiners from part b to part a form a space of dimension 1 when
    a = b is irreducible and 0 when a and b are inequivalent irreducibles
    (and the dimension is the same from a to b).  Those blocks are the
    catalog's trivial-label blocks and go through ``cache`` like any other,
    so a sweep factors each once.
    """
    firsts: dict = {}  # content -> first part with it
    for part in system.col_parts:
        firsts.setdefault(part.content, part)
    parts = list(firsts.values())
    trivial = _trivial_system(system.kind, len(system.omega_gens), system.d)
    for i, a in enumerate(parts):
        for b in parts[i:]:
            if _kernel(trivial, a, b, cache).shape[1] != (a is b):
                at = a.index.tolist()
                if a is b:
                    return f"input part at indices {at} is reducible"
                return f"input parts at indices {at} and {b.index.tolist()} are equivalent"
    return None


def joint_nullspace(system: CovarianceSystem, cache: dict | None = None) -> KernelFamily:
    """Orthonormal basis of the intersection of all generators' kernels.

    The direct sum of the block kernels, each block's basis placed at the
    block's entries, in (row part, column part) order; the family's
    ``layout`` records that placement.  ``cache`` (a dict owned by the
    caller, typically one per sweep) holds block bases by content, so a
    block repeated across instances is factored once; without one, repeats
    within this instance still are.  An empty basis is a valid result and
    means no covariant CP map exists for these labels.
    """
    if cache is None:
        cache = {}
    placed = []  # (entry positions, block basis, row part, column part) of each block with a kernel
    for i, rows in enumerate(system.row_parts):
        for j, cols in enumerate(system.col_parts):
            kernel = _kernel(system, rows, cols, cache)
            if kernel.shape[1]:
                placed.append((system.entries(rows, cols), kernel, i, j))
    K, d = system.K, system.d
    basis = np.zeros((K * d * d, sum(part.shape[1] for _, part, _, _ in placed)), dtype=complex)
    layout = []
    for index, part, i, j in placed:
        basis[index, len(layout) : len(layout) + part.shape[1]] = part
        layout += [(i, j, s) for s in range(part.shape[1])]
    defect = _input_defect(system, cache) if layout else None
    return KernelFamily(basis, K, d, np.array(layout, dtype=int).reshape(-1, 3), system.col_parts, defect)


def intertwiner(target, moved, cache: dict | None = None) -> np.ndarray:
    """Unitary T with T^dag moved(g) T = target(g) for every generator g.

    ``target`` and ``moved`` are the generator matrices of two equivalent
    irreducible representations of a finite group.  T spans the kernel of
    the discrete covariance system moved(g)^dag T target(g) = T: the
    trivial-label Schur block with rows on ``moved`` and columns on
    ``target``, neither side split, read through ``cache`` as for
    :func:`joint_nullspace`.  By Schur's lemma that kernel is one
    dimensional and T^dag T is a multiple of the identity, so the unit
    kernel vector scaled by sqrt(dim) is unitary.
    """
    r = target[0].shape[0]
    rows, cols = (InvariantBlock.on(np.arange(r), gens) for gens in (moved, target))
    kernel = _kernel(_trivial_system("discrete", len(target), r), rows, cols, {} if cache is None else cache)
    if kernel.shape[1] != 1:
        raise DimMismatch(f"expected one intertwiner between equivalent irreps, found {kernel.shape[1]}")
    return np.sqrt(r) * kernel[:, 0].reshape(r, r)


def covariance_residual(kraus, D1: Rep, D2: Rep, omega: Irrep, kind: str) -> np.ndarray:
    """Worst-case Frobenius defect of the covariance relations, over
    generators and Kraus slots, of each Kraus set in ``kraus`` (shape
    (..., K, d, d), e.g. an (S, K, d, d) stack): shape (...)."""
    X = np.asarray(kraus, dtype=complex)
    row_rep, col_rep = _rows_cols(kind, D1, D2)
    worst = np.zeros(X.shape[:-3])
    for a, b, om in zip(row_rep.generator_matrices, col_rep.generator_matrices, omega.generator_matrices):
        worst = np.maximum(worst, np.linalg.norm(_defect(kind, a, b, om, X), axis=(-2, -1)).max(axis=-1))
    return worst
