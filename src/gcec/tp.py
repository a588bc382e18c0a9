"""Trace preservation in closed form, by Schur's lemma.

Coefficients c over the kernel basis determine Kraus operators A_k(c), and
a channel needs Xi(c) = sum_k A_k(c)^dag A_k(c) = 1.  Xi(c) commutes with
the input representation, the one on the columns of each A_k (D1 for
finite groups, D2 for SO3/SU2), so the quadratic system splits by input
irrep.  The input parts (:attr:`KernelFamily.inputs`) are grouped by
content into irreps rho of multiplicity m_rho, and the matrix C_rho is read
off the coefficients through :attr:`KernelFamily.layout`: one row per (row
part, kernel vector of the Schur block of that row part and rho), one
column per copy of rho.  The copies share each block's orthonormal kernel
basis, so

    Xi(c) = (+)_rho (C_rho^dag C_rho / dim rho) (x) 1,

and the trace-preserving set is the product over rho of the scaled Stiefel
manifolds {C_rho : C_rho^dag C_rho = dim rho * 1}.  Hence:

- A TP point exists exactly when every rho has n_rho >= m_rho rows, so that
  C_rho can be an isometry.  Otherwise Xi(c) is singular for every c: the
  stacked Kraus operator is rank deficient on the whole family.  That rule
  is :func:`has_tp_point`, which :func:`solve_tp` applies to a family and
  :mod:`gcec.pipeline` to a sweep's counts, where n_rho is (a^T N)_rho for
  a row representation with irrep multiplicities a and the table N of
  Schur-block kernel dimensions (:func:`gcec.kernels.kernel_dims`).
- Samples are exact: C_rho = sqrt(dim rho) Q, with Q the QR factor of a
  complex Gaussian drawn from the instance's generator, its column phases
  fixed so that Q is Haar distributed.  A Haar sample has the family's
  generic rank with probability one.  Each sample's global phase is fixed
  as a kernel basis column's is (:func:`gcec.kernels.gauge_fix_columns`).
- A multiplicity-free family (every m_rho = 1) has free phases.  With
  t_j = |c_j|^2 its constraints are linear, sum_{j in rho} t_j = dim rho
  (its ``moduli_constraints``, one per rho), so the moduli polytope is a
  product of simplices whose vertices choose one coordinate per rho.  Its
  first sample sits at the vertex of least t_1 + 2 t_2 + ... + n t_n
  (coordinates ordered by their basis column's leading entry) among those
  whose point fails the rank test, or among all vertices when none does,
  so a polytope with a vertex that is not an extreme channel always shows
  one.

So a solved family stores the samples that decide its classification: a
multiplicity-free family its canonical vertex, then one Haar sample; any
other family one Haar sample.  The last sample is always the Haar one.  A
family whose only freedom is one phase keeps the vertex alone, since its
Haar sample gauges back onto it.

The closed form needs every input part irreducible and parts of different
content inequivalent, which the parts of a representation built from
catalog irreps are by construction (:mod:`gcec.reps`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .extremality import DEFAULT_TOL_RANK, test_extreme
from .kernels import KernelFamily, gauge_fix_columns, leading_entries


@dataclass
class TpSolveReport:
    """Outcome of a trace-preservation solve.

    ``solutions`` are coefficient vectors over the family's kernel basis;
    ``moduli_constraints`` is set for a multiplicity-free family only.
    """

    status: str  # "solved" | "no_solution"
    solutions: list = field(default_factory=list)
    moduli_constraints: list = field(default_factory=list)
    detail: str = ""


def _irreps(family: KernelFamily) -> list[tuple[int, np.ndarray]]:
    """(dim rho, C) per input irrep rho, in the order of its first part:
    C[i, j] is the basis column holding entry (i, j) of C_rho, rows in
    (row part, kernel vector) order and one column per copy."""
    copies: dict = {}  # content -> positions of its parts among the inputs
    for j, part in enumerate(family.inputs):
        copies.setdefault(part.content, []).append(j)
    columns: dict = {}  # input part -> its basis columns, in order
    for col, j in enumerate(family.layout[:, 1].tolist()):
        columns.setdefault(j, []).append(col)
    return [
        (family.inputs[js[0]].index.size, np.array([columns.get(j, []) for j in js], dtype=int).T)
        for js in copies.values()
    ]


def has_tp_point(rows, copies):
    """Whether every input irrep rho has at least as many rows n_rho of
    C_rho as copies m_rho, so that each C_rho can be an isometry.  Both
    arguments hold one entry per rho on their last axis and broadcast over
    the leading ones; an irrep with no copies passes, since rows are never
    negative."""
    return np.all(np.asarray(rows) >= np.asarray(copies), axis=-1)


def _haar(irreps, n: int, rng: np.random.Generator) -> np.ndarray:
    """A random TP point: each C_rho = sqrt(dim rho) Q, Q the QR factor of a
    complex Gaussian with R's diagonal phases moved onto its columns (which
    makes Q Haar distributed)."""
    c = np.zeros(n, dtype=complex)
    for dim, C in irreps:
        re, im = rng.standard_normal((2, *C.shape))
        q, r = np.linalg.qr(re + 1j * im)
        diag = np.diagonal(r)
        c[C] = np.sqrt(dim) * q * (diag / np.abs(diag))
    return c


def _moduli(family: KernelFamily, irreps, tol_rank: float):
    """(vertices, canonical vertex, constraint texts) of a multiplicity-free
    family.

    A vertex puts sqrt(dim rho) on one coordinate of each rho; ``vertices``
    holds their coefficient vectors (phases 0), one per row.  Vertices
    come in column-subset order of their ordered coordinates, and the
    canonical one has the least cost among those whose point fails the rank
    test at ``tol_rank`` (among all when none does; a tie goes to the first).
    Two families that a label move (:mod:`gcec.classes`) maps onto each
    other have the same polytope with the coordinates in another order, so
    by cost alone one could sit at a failing vertex and the other at a
    passing one; taking a failing vertex whenever there is one gives both
    the same classification.
    """
    n, K, d = family.n_params, family.K, family.d
    pos = np.empty(n, dtype=int)
    pos[np.argsort(leading_entries(family.basis)[0], kind="stable")] = np.arange(n)
    dims = np.array([dim for dim, _ in irreps])
    choices = np.array(sorted(product(*(C[:, 0] for _, C in irreps)), key=lambda cols: sorted(pos[list(cols)])))
    vertices = np.zeros((len(choices), n), dtype=complex)
    np.put_along_axis(vertices, choices, np.sqrt(dims), axis=1)
    cost = (pos[choices] + 1.0) @ dims
    if len(vertices) > 1:
        fails = ~test_extreme((vertices @ family.basis.T).reshape(-1, K, d, d), tol_rank).extreme
        if fails.any():
            cost = np.where(fails, cost, np.inf)
    texts = [" + ".join(f"{1.0 / dim:.6g}|u{p + 1}|^2" for p in sorted(pos[C[:, 0]])) + " = 1" for dim, C in irreps]
    return vertices, vertices[np.argmin(cost)], texts


def solve_tp(family: KernelFamily, seed=0, tol_rank: float = DEFAULT_TOL_RANK) -> TpSolveReport:
    """The trace-preserving points of the family, in closed form.

    ``seed`` seeds the Haar samples; ``tol_rank`` is the rank test's
    tolerance, with which a multiplicity-free family picks its canonical
    vertex.
    """
    if family.n_params == 0:
        return TpSolveReport(status="no_solution", detail="empty family: only the zero map is covariant")
    irreps = _irreps(family)
    rows, copies = zip(*(C.shape for _, C in irreps))
    if not has_tp_point(rows, copies):
        return TpSolveReport(
            status="no_solution", detail="stacked Kraus operator is rank deficient on the whole family"
        )
    report = TpSolveReport(status="solved", detail="closed form")
    first = []
    if all(C.shape[1] == 1 for _, C in irreps):
        _, canonical, report.moduli_constraints = _moduli(family, irreps, tol_rank)
        first = [canonical]
    haar = _haar(irreps, family.n_params, np.random.default_rng(seed))
    samples = gauge_fix_columns(np.stack([*first, haar]).T).T  # each row's global phase
    if len(samples) == 2 and np.array_equal(*np.round(samples, 9)):
        samples = samples[:1]  # one phase is the only freedom: the Haar sample gauged back onto the vertex
    report.solutions = list(samples)
    return report
