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
written down; the system matrices and :func:`covariance_residual` evaluate
it.

Schur blocks.  The representation acting on the rows of A_k (D2 for
discrete groups, D1 for Lie groups) and the one acting on its columns (D1,
resp. D2) are each given as invariant parts: ``Rep.split``, one part per
catalog irrep of the representation's label at its offset in the direct
sum, computed once per representation object, so a sweep splits each
representation once.  The systems themselves take any invariant parts, so
a densely rotated representation passed as one part works as well.  The
relations then decouple: the entries A_k[I, J] for a row block I and a
column block J, over all k, form an independent system of K*|I|*|J|
unknowns.  Each block's kernel is found on its own, and the instance's
kernel is the direct sum of the block kernels, embedded into K*d^2 space
in (row block, column block) order.

Highest weight.  A Lie part is in *ladder form* when Lz is diagonal with
weights a, a-1, ..., L+ is nonzero exactly on the superdiagonal and L-
exactly on the subdiagonal, as the catalog irreps are.  The parts are sl2
representations, so a block's solution k -> A_k intertwines Omega with the
action X -> R X - X C of the row and column parts, and is fixed by X_0, the
image of Omega's top weight vector: L+ annihilates X_0, and its weight g
puts it on the band of entries (i, i + delta), delta = g - a + b (a and b
the row and column top weights).  There L+ gives the two-term recursion
x[i+1] = x[i] C+[i+delta, i+delta+1] / R+[i, i+1].  If delta is not an
integer, or the band does not start at row 0 and end at the last column, a
one-term equation forces X_0 = 0 and the kernel is empty (the triangle
rule).  Otherwise the kernel is one dimensional, and lowering gives the
rest: X_{k+1} = (R- X_k - X_k C-) / Omega-[k+1, k].  Each lowering step
amplifies the roundoff in the other spin components, so
:func:`_highest_weight` lowers only to the middle, builds the other half the
same way from the lowest weight (the block with every index reversed and L+
and L- swapped is in ladder form too), and matches the halves' scales where
they meet.  On the catalog blocks up to dimension 13 every generator's
defect then stays below 2.5e-14 (the SVD's: 1.1e-14).  The vector is
normalized and gauge-fixed like an SVD kernel.  Every other block, discrete
or with a Lie part in another basis, is built by :func:`_columns` from every
generator and factored by :func:`_nullspaces`.  :func:`covariance_residual`
still applies all three generators to every emitted sample.

Rank threshold.  In a block that :func:`_nullspaces` factors, a singular
value counts as zero when it is at most ``TOL_KERNEL * max(1, sigma_max)``
of its block; a block whose matrices are identically zero is unconstrained
(identity basis).  The absolute floor matters for blocks made only of
roundoff, such as a Z2 character stored as -1 + 1.2e-16j, whose whole
kernel a purely relative rule would drop.

Cache.  A sweep meets the same (row irrep, column irrep, Omega) block in
many instances.  A Schur block is the tuple (kind, omega, rows, cols), Omega
an ``InvariantBlock`` on the Kraus index like the two parts, read through a
plain dict owned by the caller (one per sweep) under (kind, omega.content,
rows.content, cols.content).  :func:`_kernels` serves a list of blocks at
once: it builds only the distinct blocks missing from the cache, reads
each distinct Lie part's ladder once per request, and factors the blocks
not in ladder form with one batched SVD per matrix shape, which gives each
matrix the bytes of its own SVD, so the cache never changes output.
:func:`kernel_dims` requests every pair of parts under every channel label
in one call, which is how a sweep counts each instance's parameters
without building its system; :func:`joint_nullspace` requests its system's blocks in one call, and
:func:`intertwiner` factors its one block alone, with no cache.

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
from .groups import Irrep
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
    Omega as the one part on the Kraus index.  ``K`` and ``d`` are read off
    them: Omega's dimension and the total size of the column parts.  Each
    (row part, column part) pair is one Schur block (kind, omega, rows,
    cols): :meth:`entries` places its unknowns in the stacked vector, and
    :func:`_kernels` finds its kernel."""

    kind: str
    row_parts: tuple[InvariantBlock, ...]
    col_parts: tuple[InvariantBlock, ...]
    omega: InvariantBlock

    @property
    def K(self) -> int:
        return self.omega.index.size

    @property
    def d(self) -> int:
        return sum(part.index.size for part in self.col_parts)

    def entries(self, rows: InvariantBlock, cols: InvariantBlock) -> np.ndarray:
        """Positions of the entries A_k[rows, cols] in the stacked K*d^2
        vector, in (k, row, column) order."""
        d = self.d
        offsets = np.arange(self.K)[:, None, None] * d * d
        return (offsets + rows.index[:, None] * d + cols.index).reshape(-1)

    def blocks(self) -> list[tuple]:
        """The Schur blocks, in (row part, column part) order."""
        return [(self.kind, self.omega, rows, cols) for rows in self.row_parts for cols in self.col_parts]


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

    def kraus_at(self, coeffs: np.ndarray) -> np.ndarray:
        """The Kraus operators at ``coeffs``, as one (K, d, d) array."""
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (self.n_params,):
            raise LengthMismatch(f"expected {self.n_params} coefficients, got shape {coeffs.shape}")
        return (self.basis @ coeffs).reshape(self.K, self.d, self.d)


def rows_cols(kind: str, D1, D2) -> tuple:
    """(representation acting on the rows of A_k, the one on its columns),
    or the same order of anything given for D1 and D2, such as their
    positions in a table."""
    return (D2, D1) if kind == "discrete" else (D1, D2)


def _build_system(kind: str, D1: Rep, D2: Rep, omega: Irrep) -> CovarianceSystem:
    if D1.dim != D2.dim:
        raise DimMismatch(f"input/output rep dims differ: {D1.dim} vs {D2.dim}")
    row_rep, col_rep = rows_cols(kind, D1, D2)
    on_kraus = InvariantBlock.on(np.arange(omega.dim), omega.generator_matrices)
    return CovarianceSystem(kind, row_rep.split, col_rep.split, on_kraus)


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


def _columns(block, entries: np.ndarray):
    """One matrix per generator: the columns at ``entries`` of the Schur
    block (kind, omega, rows, cols)'s system, whose column i is the defect
    of the i-th unit vector.  ``entries`` are positions in the block's own
    (k, row, column) order, and only their unit vectors are built."""
    kind, omega, rows, cols = block
    shape = (omega.index.size, rows.index.size, cols.index.size)
    n, m = int(np.prod(shape)), entries.size
    units = np.zeros((m, n), dtype=complex)
    units[np.arange(m), entries] = 1.0
    units = units.reshape(m, *shape)
    return tuple(
        _defect(kind, a, b, om, units).reshape(m, n).T
        for a, b, om in zip(rows.generators, cols.generators, omega.generators)
    )


def _ladder(part: InvariantBlock):
    """(top weight, L+ superdiagonal, L- subdiagonal) of a Lie part in ladder
    form, or None (see "Highest weight")."""
    plus, minus, z = part.generators
    top = z[0, 0].real
    up, down = np.diagonal(plus, 1), np.diagonal(minus, -1)
    ladder = (
        np.array_equal(z, np.diag(top - np.arange(z.shape[0])))
        and np.array_equal(plus, np.diag(up, 1))
        and np.array_equal(minus, np.diag(down, -1))
        and up.all()
        and down.all()
    )
    return (top, up, down) if ladder else None


def _highest_weight(block, ladders) -> np.ndarray:
    """Kernel basis, of 0 or 1 columns, of the Lie Schur block (kind, omega,
    rows, cols) whose parts have the ladders (omega's, rows', cols'), lowered
    from the top and raised from the bottom to the middle (see "Highest
    weight")."""
    _, omega, rows, cols = block
    K = omega.index.size
    top = _lowered(ladders, K // 2)
    if top is None:
        return np.zeros((K * rows.index.size * cols.index.size, 0), dtype=complex)
    flipped = [(up.size - weight, down[::-1], up[::-1]) for weight, up, down in ladders]
    bottom = _lowered(flipped, K - 1 - K // 2)[::-1, ::-1, ::-1]
    bottom *= np.vdot(bottom[0], top[-1]) / np.vdot(bottom[0], bottom[0])  # both halves hold X_{K//2}
    v = np.concatenate([top, bottom[1:]]).reshape(-1, 1)
    return gauge_fix_columns(v / np.linalg.norm(v))


def _lowered(ladders, steps):
    """X_0, ..., X_steps of the block whose parts have ``ladders``: X_0 on its
    weight band by the L+ recursion, each next one by lowering with L-; None
    when a one-term equation forces X_0 = 0."""
    (g, _, lower), (a, r_up, r_down), (b, c_up, c_down) = ladders
    r, c, delta = r_up.size + 1, c_up.size + 1, g - a + b  # X_0 lives on the entries (i, i + delta)
    if not (delta.is_integer() and 0 <= delta < c and c - delta <= r):
        return None
    delta = int(delta)
    n = c - delta
    X = np.zeros((steps + 1, r, c), dtype=complex)
    X[0, np.arange(n), np.arange(delta, c)] = np.cumprod(np.append(1.0, c_up[delta:] / r_up[: n - 1]))
    for k in range(steps):  # X_{k+1} = (R- X_k - X_k C-) / Omega-[k+1, k]
        X[k + 1, 1:] = r_down[:, None] * X[k, :-1]
        X[k + 1, :, :-1] -= X[k, :, 1:] * c_down
        X[k + 1] /= lower[k]
    return X


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
    """Kernel bases of the Schur blocks in ``blocks``, in order, read through
    ``cache`` (see "Cache"): each missing Lie block whose parts are in ladder
    form is built by :func:`_highest_weight`, and every other one assembled
    by :func:`_columns` and factored by :func:`_nullspaces`."""
    keys = [(kind, omega.content, rows.content, cols.content) for kind, omega, rows, cols in blocks]
    missing = {key: block for key, block in zip(keys, blocks) if key not in cache}
    lie_parts = {part.content: part for kind, *parts in missing.values() if kind == "lie" for part in parts}
    ladders = {content: _ladder(part) for content, part in lie_parts.items()}
    factored = []  # (key, matrix)
    for key, block in missing.items():
        kind, omega, rows, cols = block
        ladder = [ladders.get(part.content) for part in (omega, rows, cols)]
        if kind == "lie" and None not in ladder:
            cache[key] = _highest_weight(block, ladder)
        else:
            n = omega.index.size * rows.index.size * cols.index.size
            factored.append((key, np.vstack(_columns(block, np.arange(n)))))
    for (key, _), kernel in zip(factored, _nullspaces([m for _, m in factored])):
        cache[key] = kernel
    return [cache[key] for key in keys]


def kernel_dims(kind: str, parts: tuple[InvariantBlock, ...], omegas, cache: dict) -> np.ndarray:
    """N[o, i, j]: the kernel dimension of the Schur block with row part
    ``parts[i]`` and column part ``parts[j]`` under the channel label
    ``omegas[o]``, every block read through ``cache`` with the keys and bases
    of :func:`joint_nullspace`, and the missing ones built together.  An
    instance whose row and column parts are copies of these has n_params =
    a^T N[o] b, for a and b the copies of each part among its row and its
    column parts."""
    on_kraus = [InvariantBlock.on(np.arange(omega.dim), omega.generator_matrices) for omega in omegas]
    kernels = _kernels([(kind, omega, rows, cols) for omega in on_kraus for rows in parts for cols in parts], cache)
    return np.array([kernel.shape[1] for kernel in kernels], dtype=int).reshape(len(omegas), len(parts), len(parts))


def joint_nullspace(system: CovarianceSystem, cache: dict | None = None) -> KernelFamily:
    """Orthonormal basis of the intersection of all generators' kernels.

    The direct sum of the block kernels, each block's basis placed at the
    block's entries, in (row part, column part) order; the family's
    ``layout`` records that placement.  ``cache`` (a dict owned by the
    caller, typically one per sweep) holds block bases by content, so a
    block repeated across instances is built once; without one, repeats
    within this instance still are.  An empty basis is a valid result and
    means no covariant CP map exists for these labels.  The system's blocks
    are requested in one call, so the missing ones are built together.
    """
    blocks = system.blocks()
    placed = [  # (entry positions, block basis, row part, column part) of each block with a kernel
        (system.entries(rows, cols), kernel, *divmod(n, len(system.col_parts)))
        for n, ((*_, rows, cols), kernel) in enumerate(zip(blocks, _kernels(blocks, {} if cache is None else cache)))
        if kernel.shape[1]
    ]
    K, d = system.K, system.d
    basis = np.zeros((K * d * d, sum(part.shape[1] for _, part, _, _ in placed)), dtype=complex)
    layout = []
    for index, part, i, j in placed:
        basis[index, len(layout) : len(layout) + part.shape[1]] = part
        layout += [(i, j, s) for s in range(part.shape[1])]
    return KernelFamily(basis, K, d, np.array(layout, dtype=int).reshape(-1, 3), system.col_parts)


def intertwiner(target, moved) -> np.ndarray:
    """Unitary T with T^dag moved(g) T = target(g) for every generator g.

    ``target`` and ``moved`` are the generator matrices of two equivalent
    irreducible representations of a finite group.  T spans the kernel of
    the discrete covariance system moved(g)^dag T target(g) = T: the
    trivial-label Schur block with rows on ``moved`` and columns on
    ``target``, neither side split, factored alone.  By Schur's lemma that
    kernel is one dimensional and T^dag T is a multiple of the identity, so
    the unit kernel vector scaled by sqrt(dim) is unitary.
    """
    r = target[0].shape[0]
    trivial = InvariantBlock.on(np.arange(1), [np.ones((1, 1))] * len(target))
    rows, cols = (InvariantBlock.on(np.arange(r), gens) for gens in (moved, target))
    (kernel,) = _nullspaces([np.vstack(_columns(("discrete", trivial, rows, cols), np.arange(r * r)))])
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
