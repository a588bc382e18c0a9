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
written down, the Lie one as the sum of the three single-axis terms of
:func:`_lie_terms`; the system matrices and :func:`covariance_residual`
evaluate it, and the Lie assembly reads the same terms.

Schur blocks.  The representation acting on the rows of A_k (D2 for
discrete groups, D1 for Lie groups) and the one acting on its columns (D1,
resp. D2) are each given as invariant parts: ``Rep.split``, one part per
catalog irrep of the representation's label at its offset in the direct
sum, computed once per representation object, so a sweep splits each
representation once.  The systems themselves take any invariant parts, so
a densely rotated representation passed as one part works as well.  The
relations then decouple: the entries A_k[I, J] for a row block I and a
column block J, over all k, form an independent system of K*|I|*|J|
unknowns.  Each block is factored by a thin SVD, and the instance's kernel
is the direct sum of the block kernels, embedded into K*d^2 space in (row
block, column block) order.

Weight space.  A Lie generator whose row, column and Omega sub-blocks are
all diagonal (a *weight* generator: Lz in the catalog's descending-m basis)
relates each unknown to itself alone, (m_i - m'_j - mu_k) A_k[i, j] = 0,
so every entry of nonzero weight is forced to zero; by the Wigner-Eckart
theorem at most K*min(r, c) of a block's K*r*c entries stay free.
:func:`_lie_matrices` assembles Lie blocks on their free entries without
unit vectors: the free entries come from the weight generators' diagonals,
and each other generator's columns at them from its nonzeros, through the
three single-axis terms of :func:`_lie_terms`, on the rows they reach (L+
and L- reach only weight +1 and -1).  This is :func:`_columns`' unit-vector
build at the free entries without its zero rows, entry for entry.  The
kernel is embedded back at the free entries; a block with none has an
empty basis, and a spin-0 block, with weight generators only, the identity.
Weight generators are found block by block from the blocks' own matrices,
since Omega is an ``Irrep`` that may come in any basis, and so may a part
handed to :func:`_system` directly.  Discrete blocks, diagonal Zn
characters included, keep every row and column, and a Lie block with no
weight generator, such as a densely rotated one, every column.

Rank threshold.  A singular value counts as zero when it is at most
``TOL_KERNEL * max(1, sigma_max)`` of its block; a block whose matrices are
identically zero is unconstrained (identity basis).  The absolute floor
matters for blocks made only of roundoff, such as a Z2 character stored as
-1 + 1.2e-16j, whose whole kernel a purely relative rule would drop.

Cache.  A sweep meets the same (row irrep, column irrep, Omega) block in
many instances.  Blocks are read through a plain dict owned by the caller
(one per sweep) and keyed by content: :meth:`CovarianceSystem.key` reads
the key of a (row part, column part) pair off the parts' ``content`` and
Omega's bytes.  :func:`_kernels` serves a list of blocks at once: it builds
only the distinct blocks missing from the cache, the Lie blocks of one
system in one assembly, and factors them with one batched SVD per matrix
shape, which gives each matrix the bytes of its own SVD.  Cached and fresh
results are identical, so the cache never changes output.
:func:`kernel_dims` requests every pair of parts under every channel label
in one call, which is how a sweep counts each instance's parameters
without building its system, and :func:`joint_nullspace` requests its
system's pairs in one call.

Layout.  The family records where each basis column came from: its row
part, its column part and its index in that block's kernel.  The column
part is the input part, the representation that Xi(c) = sum_k A_k^dag A_k
acts on, which :mod:`gcec.tp` splits by Schur's lemma.  That split needs
every input part irreducible and parts of different content inequivalent,
which a ``Rep``'s split is by construction (:mod:`gcec.reps`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, LengthMismatch
from .groups import Irrep, direct_sum
from .reps import InvariantBlock, Rep

TOL_KERNEL = 1e-10  # relative, with an absolute floor (see "Rank threshold")


def _defect(kind: str, row_g, col_g, om, X: np.ndarray) -> np.ndarray:
    """Covariance defect of Kraus stacks ``X`` (shape (..., K, r, c)) for one
    generator: ``row_g`` acts on the rows of each A_k, ``col_g`` on its
    columns and ``om`` on the Kraus index."""
    if kind == "discrete":
        return row_g.conj().T @ X @ col_g - np.einsum("kl,...lrc->...krc", om, X)
    on_rows, on_cols, on_kraus = _lie_terms(row_g, col_g, om)
    return on_rows @ X + X @ on_cols + np.einsum("lk,...lrc->...krc", on_kraus, X)


def _lie_terms(row_g, col_g, om) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Lie defect as three single-axis terms (R, C, W): the defect of a
    stack X is R @ X + X @ C + sum_l W_lk X_l, so the unit vector at A_k[i, j]
    has the defect R[a, i] at A_k[a, j], C[j, b] at A_k[i, b] and W[k, l] at
    A_l[i, j], summed in that order where they meet."""
    return row_g, -col_g, -om


@dataclass(frozen=True)
class CovarianceSystem:
    """The covariance relations of one instance: the invariant parts of the
    representations acting on the rows and on the columns of each A_k, and
    Omega's generators (complex) with their bytes.  ``K`` and ``d`` are read
    off them: Omega's dimension and the total size of the column parts.
    Each (row part, column part) pair is one Schur block: :meth:`entries`
    places its unknowns in the stacked vector, :meth:`key` names its
    content, and :func:`_kernels` builds and factors it."""

    kind: str
    row_parts: tuple[InvariantBlock, ...]
    col_parts: tuple[InvariantBlock, ...]
    omega_gens: tuple[np.ndarray, ...]
    omega_content: tuple[bytes, ...]

    @property
    def K(self) -> int:
        return self.omega_gens[0].shape[0]

    @property
    def d(self) -> int:
        return sum(part.index.size for part in self.col_parts)

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
    the input parts.
    """

    basis: np.ndarray
    K: int
    d: int
    layout: np.ndarray
    inputs: tuple[InvariantBlock, ...]

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


def rows_cols(kind: str, D1, D2) -> tuple:
    """(representation acting on the rows of A_k, the one on its columns),
    or the same order of anything given for D1 and D2, such as their
    positions in a table."""
    return (D2, D1) if kind == "discrete" else (D1, D2)


def _build_system(kind: str, D1: Rep, D2: Rep, omega: Irrep) -> CovarianceSystem:
    if D1.dim != D2.dim:
        raise DimMismatch(f"input/output rep dims differ: {D1.dim} vs {D2.dim}")
    row_rep, col_rep = rows_cols(kind, D1, D2)
    return _system(kind, row_rep.split, col_rep.split, omega.generator_matrices)


def _system(kind: str, row_parts, col_parts, omega_gens) -> CovarianceSystem:
    omega_gens = tuple(np.asarray(g, dtype=complex) for g in omega_gens)
    return CovarianceSystem(
        kind, tuple(row_parts), tuple(col_parts), omega_gens, tuple(g.tobytes() for g in omega_gens)
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


def _columns(system: CovarianceSystem, rows: InvariantBlock, cols: InvariantBlock, entries: np.ndarray):
    """One matrix per generator: the columns at ``entries`` of the (rows,
    cols) block's system, whose column i is the defect of the i-th unit
    vector.  ``entries`` are positions in the block's own (k, row, column)
    order, and only their unit vectors are built."""
    shape = (system.K, rows.index.size, cols.index.size)
    n, m = int(np.prod(shape)), entries.size
    units = np.zeros((m, n), dtype=complex)
    units[np.arange(m), entries] = 1.0
    units = units.reshape(m, *shape)
    return tuple(
        _defect(system.kind, a, b, om, units).reshape(m, n).T
        for a, b, om in zip(rows.generators, cols.generators, system.omega_gens)
    )


def _is_diagonal(g: np.ndarray) -> bool:
    return np.count_nonzero(g) == np.count_nonzero(np.diagonal(g))


def _row_nonzeros(m: np.ndarray, at: np.ndarray):
    """(position in ``at``, column, value) of each nonzero on the rows ``at``
    of ``m``."""
    rows, cols = np.nonzero(m)
    count = np.bincount(rows, minlength=m.shape[0])
    first, count = (np.cumsum(count) - count)[at], count[at]
    which = np.repeat(np.arange(at.size), count)
    nz = np.repeat(first - (np.cumsum(count) - count), count) + np.arange(which.size)
    return which, cols[nz], m[rows[nz], cols[nz]]


def _lie_matrices(system: CovarianceSystem, pairs) -> list:
    """(free entries, matrix) of each Lie block (rows, cols) in ``pairs``,
    assembled together in weight space (see "Weight space").  The blocks'
    parts are laid out block-diagonally, one generator matrix per side, so
    the blocks are disjoint pieces of one Kraus stack of shape (K, all rows,
    all columns), whose (k, row, column) order is each block's own order."""
    sides = []  # per side: its distinct parts, each block's part, and the part and local index of each row (column)
    for side in (0, 1):
        parts = list({id(pair[side]): pair[side] for pair in pairs}.values())
        at = {id(part): n for n, part in enumerate(parts)}
        local = np.concatenate([np.arange(part.index.size) for part in parts])
        sides.append((parts, [at[id(pair[side])] for pair in pairs], np.cumsum(local == 0) - 1, local))
    (row_parts, P, row_part, row_local), (col_parts, Q, col_part, col_local) = sides
    of_pair = np.full((len(row_parts), len(col_parts)), len(pairs))
    of_pair[P, Q] = range(len(pairs))
    block = of_pair[row_part[:, None], col_part]  # of each (row, column); len(pairs) outside the blocks
    free = np.broadcast_to(block < len(pairs), (system.K, *block.shape))
    gens = []  # per generator: its terms, and whether it is a weight generator of each block
    for t, om in enumerate(system.omega_gens):
        rows, cols = (direct_sum([part.generators[t] for part in parts]) for parts in (row_parts, col_parts))
        terms = _lie_terms(rows, cols, om)
        weight = _is_diagonal(om) & np.array([_is_diagonal(part.generators[t]) for part in row_parts])[P]
        weight &= np.array([_is_diagonal(part.generators[t]) for part in col_parts])[Q]
        on_rows, on_cols, on_kraus = (np.diagonal(term) for term in terms)
        forced = np.append(weight, False)[block] & ((on_rows[:, None] + on_cols) + on_kraus[:, None, None] != 0)
        free = free & ~forced
        gens.append((terms, weight))
    k, i, j = np.nonzero(free)
    order = np.argsort(block[i, j], kind="stable")  # by block, each in its own order
    k, i, j = k[order], i[order], j[order]
    of = block[i, j]
    n_free = np.bincount(of, minlength=len(pairs))
    position = np.ravel_multi_index((k, i, j), free.shape)
    hits = []  # per nonzero: its free entry, its row's key (block, generator, position) and its value
    for t, ((on_rows, on_cols, on_kraus), weight) in enumerate(gens):
        e = np.flatnonzero(~weight[of])  # the free entries that this generator constrains
        # R[a, i] at A_k[a, j], then C[j, b] at A_k[i, b], then W[k, l] at A_l[i, j]
        for m, index, stride in zip((on_rows.T, on_cols, on_kraus), (i, j, k), (free.shape[2], 1, free[0].size)):
            n, to, value = _row_nonzeros(m, index[e])
            f = e[n]
            hits.append((f, (of[f] * len(gens) + t) * free.size + position[f] + (to - index[f]) * stride, value))
    f, key, value = (np.concatenate(field) for field in zip(*hits))
    reached, row = np.unique(key, return_inverse=True)
    n_rows = np.bincount(reached // (len(gens) * free.size), minlength=len(pairs))
    cells = n_rows * n_free
    start = np.cumsum(cells) - cells
    row -= (np.cumsum(n_rows) - n_rows)[of[f]]
    column = np.arange(of.size) - np.repeat(np.cumsum(n_free) - n_free, n_free)
    flat = np.zeros(cells.sum(), dtype=complex)
    # unbuffered and in hit order, so where two terms meet they add as in _lie_terms
    np.add.at(flat, start[of[f]] + row * n_free[of[f]] + column[f], value)
    r, c = np.bincount(row_part)[row_part[i]], np.bincount(col_part)[col_part[j]]
    frees = np.split((k * r + row_local[i]) * c + col_local[j], np.cumsum(n_free)[:-1])
    return [(e, flat[s : s + m * n].reshape(m, n)) for e, s, m, n in zip(frees, start, n_rows, n_free)]


def _nullspaces(matrices: list) -> list:
    """Gauge-fixed orthonormal kernel basis of each matrix, with one batched
    SVD per matrix shape (see "Rank threshold")."""
    out = [None] * len(matrices)
    by_shape: dict = {}
    for at, m in enumerate(matrices):
        if np.any(m):
            by_shape.setdefault(m.shape, []).append(at)
        else:  # unconstrained entries: every choice of them is covariant
            out[at] = np.eye(m.shape[1], dtype=complex)
    for batch in by_shape.values():
        _, svals, vh = np.linalg.svd(np.stack([matrices[at] for at in batch]), full_matrices=False)
        for at, s, v in zip(batch, svals, vh):
            rank = int(np.sum(s > TOL_KERNEL * max(1.0, s[0])))
            out[at] = gauge_fix_columns(v[rank:].conj().T)
    return out


def _kernels(blocks, cache: dict) -> list:
    """Kernel bases of the Schur blocks (system, rows, cols) in ``blocks``, in
    order, read through ``cache``: the distinct blocks missing from it are
    factored together by :func:`_factor` (see "Cache")."""
    keys = [system.key(rows, cols) for system, rows, cols in blocks]
    missing = {key: block for key, block in zip(keys, blocks) if key not in cache}
    if missing:
        _factor(missing, cache)
    return [cache[key] for key in keys]


def _factor(blocks: dict, cache: dict) -> None:
    """Store in ``cache`` the kernel basis of each block (system, rows, cols)
    of ``blocks``, under its key: discrete blocks are assembled by
    :func:`_columns`, the Lie blocks of each system together by
    :func:`_lie_matrices`, and the matrices factored by :func:`_nullspaces`."""
    by_system: dict = {}  # id(system) -> (system, [(key, rows, cols)])
    for key, (system, rows, cols) in blocks.items():
        by_system.setdefault(id(system), (system, []))[1].append((key, rows, cols))
    built = []  # (key, block size, free entries, matrix)
    for system, group in by_system.values():
        if system.kind == "lie":
            assembled = _lie_matrices(system, [(rows, cols) for _, rows, cols in group])
        else:
            assembled = []
            for _, rows, cols in group:
                free = np.arange(system.K * rows.index.size * cols.index.size)
                assembled.append((free, np.vstack(_columns(system, rows, cols, free))))
        for (key, rows, cols), (free, m) in zip(group, assembled):
            built.append((key, system.K * rows.index.size * cols.index.size, free, m))
    for (key, size, free, _), kernel in zip(built, _nullspaces([m for *_, m in built])):
        # The forced zeros sit between free entries and never lead a column, so
        # gauge-fixing before embedding is the same as after.  A block with no
        # free entry has an empty matrix, so an empty basis.
        basis = np.zeros((size, kernel.shape[1]), dtype=complex)
        basis[free] = kernel
        cache[key] = basis


def kernel_dims(kind: str, parts: tuple[InvariantBlock, ...], omegas, cache: dict) -> np.ndarray:
    """N[o, i, j]: the kernel dimension of the Schur block with row part
    ``parts[i]`` and column part ``parts[j]`` under the channel label
    ``omegas[o]``, every block read through ``cache`` with the keys and bases
    of :func:`joint_nullspace`, and the missing ones factored together.  An
    instance whose row and column parts are copies of these has n_params =
    a^T N[o] b, for a and b the copies of each part among its row and its
    column parts."""
    systems = [_system(kind, parts, parts, omega.generator_matrices) for omega in omegas]
    kernels = _kernels([(system, rows, cols) for system in systems for rows in parts for cols in parts], cache)
    return np.array([kernel.shape[1] for kernel in kernels], dtype=int).reshape(len(omegas), len(parts), len(parts))


def joint_nullspace(system: CovarianceSystem, cache: dict | None = None) -> KernelFamily:
    """Orthonormal basis of the intersection of all generators' kernels.

    The direct sum of the block kernels, each block's basis placed at the
    block's entries, in (row part, column part) order; the family's
    ``layout`` records that placement.  ``cache`` (a dict owned by the
    caller, typically one per sweep) holds block bases by content, so a
    block repeated across instances is factored once; without one, repeats
    within this instance still are.  An empty basis is a valid result and
    means no covariant CP map exists for these labels.  The system's blocks
    are requested in one call, so the missing ones are factored together.
    """
    if cache is None:
        cache = {}
    blocks = [(system, rows, cols) for rows in system.row_parts for cols in system.col_parts]
    placed = [  # (entry positions, block basis, row part, column part) of each block with a kernel
        (system.entries(rows, cols), kernel, *divmod(n, len(system.col_parts)))
        for n, ((_, rows, cols), kernel) in enumerate(zip(blocks, _kernels(blocks, cache)))
        if kernel.shape[1]
    ]
    K, d = system.K, system.d
    basis = np.zeros((K * d * d, sum(part.shape[1] for _, part, _, _ in placed)), dtype=complex)
    layout = []
    for index, part, i, j in placed:
        basis[index, len(layout) : len(layout) + part.shape[1]] = part
        layout += [(i, j, s) for s in range(part.shape[1])]
    return KernelFamily(basis, K, d, np.array(layout, dtype=int).reshape(-1, 3), system.col_parts)


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
    trivial = _system("discrete", (), (), [np.ones((1, 1))] * len(target))
    (kernel,) = _kernels([(trivial, rows, cols)], {} if cache is None else cache)
    if kernel.shape[1] != 1:
        raise DimMismatch(f"expected one intertwiner between equivalent irreps, found {kernel.shape[1]}")
    return np.sqrt(r) * kernel[:, 0].reshape(r, r)


def covariance_residual(kraus, D1: Rep, D2: Rep, omega: Irrep, kind: str) -> np.ndarray:
    """Worst-case Frobenius defect of the covariance relations, over
    generators and Kraus slots, of each Kraus set in ``kraus`` (shape
    (..., K, d, d), e.g. an (S, K, d, d) stack): shape (...)."""
    X = np.asarray(kraus, dtype=complex)
    row_rep, col_rep = rows_cols(kind, D1, D2)
    worst = np.zeros(X.shape[:-3])
    for a, b, om in zip(row_rep.generator_matrices, col_rep.generator_matrices, omega.generator_matrices):
        worst = np.maximum(worst, np.linalg.norm(_defect(kind, a, b, om, X), axis=(-2, -1)).max(axis=-1))
    return worst
