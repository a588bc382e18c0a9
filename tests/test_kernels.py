"""Covariance systems and their joint nullspaces."""

from functools import cached_property

import numpy as np
import pytest

from gcec.errors import DimMismatch, LengthMismatch
from gcec.groups import Irrep, infer_kind, props
import gcec.kernels as kernels
from gcec.kernels import (
    build_discrete_system,
    build_lie_system,
    covariance_residual,
    intertwiner,
    joint_nullspace,
)
import gcec.reps as reps
import gcec.pipeline as pipeline
from gcec.pipeline import run_enumeration
from gcec.reps import enumerate_reps, make_rep_label, materialize, omega_candidates

from fixtures import (
    a4_qutrit_triple,
    d5_qutrit_pair,
    rotated,
    rotated_system,
    s3_qutrit_family,
    so3_d5_family,
    so3_qutrit_family,
    su2_flip_family,
)
from oracles import random_unitary


def _instance(name, kind, d, omega_index, parts1, parts2):
    spec = props(name, kind, d).group
    D1 = materialize(spec, make_rep_label(spec, parts1))
    D2 = materialize(spec, make_rep_label(spec, parts2))
    omega = spec.irrep_by_index(omega_index)
    build = build_discrete_system if kind == "discrete" else build_lie_system
    return build(D1, D2, omega), D1, D2, omega


# (name, kind, d, omega index, D1 parts, D2 parts, kernel dim, fixture or None)
INSTANCES = [
    ("S3", "discrete", 3, 2, (0, 2), (0, 2), 3, s3_qutrit_family(0.3 - 0.1j, 0.7j, 0.2 + 0.4j)),
    ("A4", "discrete", 3, 3, (3,), (3,), 2, a4_qutrit_triple()),
    ("A4", "discrete", 3, 3, (0, 1, 2), (3,), 3, None),
    ("D5", "discrete", 3, 2, (0, 2), (0, 2), 2, d5_qutrit_pair()),
    ("D5", "discrete", 3, 3, (0, 3), (0, 3), 2, d5_qutrit_pair()),
    ("SO3", "lie", 3, 1, (1,), (1,), 1, so3_qutrit_family(0.83)),
    ("SO3", "lie", 5, 2, (2,), (2,), 1, so3_d5_family(-0.4)),
    ("SU2", "lie", 2, 0, (0, 0), (0, 0), 4, su2_flip_family(2)),
    ("SU2", "lie", 3, 1, (0, 1), (0, 1), 2, su2_flip_family(3)),
    ("SU2", "lie", 4, 2, (0, 2), (0, 2), 3, su2_flip_family(4)),
    ("SU2", "lie", 2, 1, (1,), (1,), 0, None),
]


def _matrices(system, rows, cols):
    """The (rows, cols) block's full matrices, one per generator."""
    return kernels._columns(system, rows, cols, np.arange(system.entries(rows, cols).size))


def _blocks(system):
    """(entry positions in the stacked vector, full matrices) of each Schur
    block, in (row part, column part) order."""
    return [
        (system.entries(rows, cols), _matrices(system, rows, cols))
        for rows in system.row_parts
        for cols in system.col_parts
    ]


def _system_defect(system, v):
    """Largest norm of one generator's system applied to the stacked vector
    ``v``, each block acting on its own entries."""
    blocks = _blocks(system)
    return max(
        np.linalg.norm(np.concatenate([mats[g] @ v[index] for index, mats in blocks]))
        for g in range(len(blocks[0][1]))
    )


def test_vec_round_trip():
    """``kraus_at`` is the stacked vector read as one row-major (K, d, d) array."""
    system, *_ = _instance("S3", "discrete", 3, 2, (0, 2), (0, 2))
    family = joint_nullspace(system)
    rng = np.random.default_rng(7)
    c = rng.normal(size=family.n_params) + 1j * rng.normal(size=family.n_params)
    kraus = family.kraus_at(c)
    v = family.vector_at(c)
    assert isinstance(kraus, np.ndarray) and kraus.shape == (2, 3, 3)
    assert np.array_equal(kraus, (family.basis @ c).reshape(2, 3, 3))
    assert np.array_equal(kraus.reshape(-1), v)
    assert np.array_equal(kraus[0], v[:9].reshape(3, 3))


def test_vec_length_mismatch():
    system, *_ = _instance("S3", "discrete", 3, 2, (0, 2), (0, 2))
    family = joint_nullspace(system)
    for wrong in (np.zeros(family.n_params + 1), np.zeros((1, family.n_params))):
        with pytest.raises(LengthMismatch):
            family.kraus_at(wrong)
        with pytest.raises(LengthMismatch):
            family.vector_at(wrong)


def test_system_shape_matches_kraus_count():
    system, *_ = _instance("S3", "discrete", 3, 2, (0, 2), (0, 2))
    assert system.K == 2 and system.d == 3
    # D1 = D2 = 1+2: four (row block, column block) pairs of 2, 4, 4, 8 unknowns
    blocks = _blocks(system)
    assert [index.size for index, _ in blocks] == [2, 4, 4, 8]
    assert np.array_equal(np.sort(np.concatenate([index for index, _ in blocks])), np.arange(18))
    for index, mats in blocks:
        assert len(mats) == 2
        assert all(m.shape == (index.size, index.size) for m in mats)


def test_unconstrained_instance_yields_identity_basis():
    system, *_ = _instance("Z2", "discrete", 2, 0, (0, 0), (0, 0))
    assert all(np.linalg.norm(m) == 0.0 for _, mats in _blocks(system) for m in mats)
    family = joint_nullspace(system)
    assert family.n_params == 4
    assert np.array_equal(family.basis, np.eye(4))


def test_fully_constrained_instance_has_empty_kernel():
    system, *_ = _instance("Z2", "discrete", 2, 1, (0, 0), (0, 0))
    blocks = _blocks(system)
    assert sum(index.size for index, _ in blocks) == 4
    for index, mats in blocks:
        assert np.allclose(mats[0], 2.0 * np.eye(index.size))
    assert joint_nullspace(system).n_params == 0


@pytest.mark.parametrize(
    "name,kind,d,om,p1,p2,n,fixture", INSTANCES, ids=lambda v: str(v)[:24]
)
def test_kernel_dims_orthonormality_and_fixtures(name, kind, d, om, p1, p2, n, fixture):
    system, D1, D2, omega = _instance(name, kind, d, om, p1, p2)
    family = joint_nullspace(system)
    assert family.n_params == n
    gram = family.basis.conj().T @ family.basis
    assert np.linalg.norm(gram - np.eye(n)) <= 1e-10
    for j in range(n):
        assert _system_defect(system, family.basis[:, j]) <= 1e-9
    if fixture is not None:
        v = np.asarray(fixture).reshape(-1)
        assert _system_defect(system, v) <= 1e-12
        assert covariance_residual(fixture, D1, D2, omega, kind) <= 1e-9


def test_s3_kernel_equals_closed_form_span():
    system, *_ = _instance("S3", "discrete", 3, 2, (0, 2), (0, 2))
    family = joint_nullspace(system)
    cols = [
        np.asarray(s3_qutrit_family(*coeffs)).reshape(-1)
        for coeffs in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    ]
    q, _ = np.linalg.qr(np.array(cols).T)
    gap = np.linalg.norm(
        family.basis @ family.basis.conj().T - q @ q.conj().T
    )
    assert gap <= 1e-9


def test_joint_nullity_bounded_by_single_generator_nullity():
    for name, kind, d, om, p1, p2, n, _ in INSTANCES:
        system, *_ = _instance(name, kind, d, om, p1, p2)
        # a generator's nullity is the sum of its blocks' nullities
        blocks = _blocks(system)
        per_gen = [0] * len(blocks[0][1])
        for _, mats in blocks:
            for g, m in enumerate(mats):
                svals = np.linalg.svd(m, compute_uv=False)
                per_gen[g] += int(np.sum(svals <= 1e-10 * max(1.0, svals[0])))
        assert n <= min(per_gen)


def _dense_reference(kind, D1, D2, omega):
    """The full (K d^2) x (K d^2) system per generator, by Kronecker products
    on row-major vec: X -> M X N is (M kron N^T) vec X."""
    d, K = D1.dim, omega.dim
    mats = []
    for t1, t2, om in zip(D1.generator_matrices, D2.generator_matrices, omega.generator_matrices):
        if kind == "discrete":
            act, mix = np.kron(t2.conj().T, t1.T), om
        else:
            act, mix = np.kron(t1, np.eye(d)) - np.kron(np.eye(d), t2.T), om.T
        mats.append(np.kron(np.eye(K), act) - np.kron(mix, np.eye(d * d)))
    return mats


def _loop_residual(kraus, D1, D2, omega, kind):
    worst = 0.0
    for t1, t2, om in zip(D1.generator_matrices, D2.generator_matrices, omega.generator_matrices):
        for k in range(omega.dim):
            if kind == "discrete":
                lhs = t2.conj().T @ kraus[k] @ t1
                rhs = sum(om[k, l] * kraus[l] for l in range(omega.dim))
            else:
                lhs = t1 @ kraus[k] - kraus[k] @ t2
                rhs = sum(om[l, k] * kraus[l] for l in range(omega.dim))
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def test_blocks_and_residual_match_dense_reference():
    rng = np.random.default_rng(16)
    cases = [_instance(name, kind, d, om, p1, p2) for name, kind, d, om, p1, p2, *_ in INSTANCES]
    # densely rotated reps, each passed as a single part
    system, D1, D2, omega = cases[0]
    D1, D2 = rotated(D1, random_unitary(rng, 3)), rotated(D2, random_unitary(rng, 3))
    cases.append((rotated_system(system.kind, D1, D2, omega), D1, D2, omega))
    for system, D1, D2, omega in cases:
        kind = system.kind
        dense = _dense_reference(kind, D1, D2, omega)
        covered = np.zeros(dense[0].shape, dtype=bool)
        blocks = _blocks(system)
        for index, mats in blocks:
            covered[np.ix_(index, index)] = True
            for m, full in zip(mats, dense):
                assert np.abs(m - full[np.ix_(index, index)]).max() <= 1e-12
        # nothing couples two blocks
        assert all(not np.any(full[~covered]) for full in dense)
        d = D1.dim
        kraus = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(omega.dim)]
        ref = _loop_residual(kraus, D1, D2, omega, kind)
        assert abs(covariance_residual(kraus, D1, D2, omega, kind) - ref) <= 1e-12 * max(1.0, ref)
    assert len(blocks) == 1


def _projector(basis):
    return basis @ basis.conj().T


def test_discrete_omega_gauge_transports_kernel():
    # Conjugating the K-dim block rotates kernel vectors by U on the Kraus index.
    system, D1, D2, omega = _instance("S3", "discrete", 3, 2, (0, 2), (0, 2))
    base = joint_nullspace(system).basis
    rng = np.random.default_rng(11)
    for _ in range(3):
        u = random_unitary(rng, omega.dim)
        moved = Irrep(
            index=omega.index,
            dim=omega.dim,
            label=omega.label,
            generator_matrices=tuple(
                u @ g @ u.conj().T for g in omega.generator_matrices
            ),
        )
        basis2 = joint_nullspace(build_discrete_system(D1, D2, moved)).basis
        transport = np.kron(u, np.eye(9))
        assert np.linalg.norm(_projector(basis2) - _projector(transport @ base)) <= 1e-9


def test_lie_omega_gauge_transports_kernel():
    system, D1, D2, omega = _instance("SU2", "lie", 3, 1, (0, 1), (0, 1))
    base = joint_nullspace(system).basis
    rng = np.random.default_rng(12)
    for _ in range(3):
        u = random_unitary(rng, omega.dim)
        moved = Irrep(
            index=omega.index,
            dim=omega.dim,
            label=omega.label,
            generator_matrices=tuple(
                u @ g @ u.conj().T for g in omega.generator_matrices
            ),
        )
        basis2 = joint_nullspace(build_lie_system(D1, D2, moved)).basis
        transport = np.kron(u.conj(), np.eye(9))
        assert np.linalg.norm(_projector(basis2) - _projector(transport @ base)) <= 1e-9


def test_discrete_rep_gauge_transports_kernel():
    system, D1, D2, omega = _instance("S3", "discrete", 3, 2, (0, 2), (0, 2))
    base = joint_nullspace(system).basis
    rng = np.random.default_rng(13)
    for _ in range(3):
        u1, u2 = random_unitary(rng, 3), random_unitary(rng, 3)
        system2 = rotated_system("discrete", rotated(D1, u1), rotated(D2, u2), omega)
        basis2 = joint_nullspace(system2).basis
        transport = np.kron(np.eye(omega.dim), np.kron(u2, u1.conj()))
        assert np.linalg.norm(_projector(basis2) - _projector(transport @ base)) <= 1e-9


def test_lie_rep_gauge_transports_kernel():
    system, D1, D2, omega = _instance("SU2", "lie", 3, 1, (0, 1), (0, 1))
    base = joint_nullspace(system).basis
    rng = np.random.default_rng(14)
    for _ in range(3):
        u1, u2 = random_unitary(rng, 3), random_unitary(rng, 3)
        system2 = rotated_system("lie", rotated(D1, u1), rotated(D2, u2), omega)
        basis2 = joint_nullspace(system2).basis
        transport = np.kron(np.eye(omega.dim), np.kron(u1, u2.conj()))
        assert np.linalg.norm(_projector(basis2) - _projector(transport @ base)) <= 1e-9


def test_covariance_residual_on_family_points():
    rng = np.random.default_rng(15)
    for name, kind, d, om, p1, p2 in [
        ("S3", "discrete", 3, 2, (0, 2), (0, 2)),
        ("SU2", "lie", 3, 1, (0, 1), (0, 1)),
    ]:
        system, D1, D2, omega = _instance(name, kind, d, om, p1, p2)
        family = joint_nullspace(system)
        c = rng.normal(size=family.n_params) + 1j * rng.normal(size=family.n_params)
        kraus = family.kraus_at(c)
        assert covariance_residual(kraus, D1, D2, omega, kind) <= 1e-9


def test_mismatched_rep_dims_rejected():
    s3 = props("S3", "discrete", 3).group
    D3 = materialize(s3, make_rep_label(s3, (0, 2)))
    D2 = materialize(s3, make_rep_label(s3, (2,)))
    with pytest.raises(DimMismatch):
        build_discrete_system(D3, D2, s3.irrep_by_index(2))
    su2 = props("SU2", "lie", 3).group
    L3 = materialize(su2, make_rep_label(su2, (2,)))
    L2 = materialize(su2, make_rep_label(su2, (1,)))
    with pytest.raises(DimMismatch):
        build_lie_system(L3, L2, su2.irrep_by_index(1))


def test_each_representation_is_split_once_per_sweep(monkeypatch):
    calls = []
    original = reps.Rep.split.func

    def counted(rep):
        calls.append(rep.label)
        return original(rep)

    split = cached_property(counted)
    split.__set_name__(reps.Rep, "split")
    monkeypatch.setattr(reps.Rep, "split", split)
    manifest = run_enumeration("S3", None, 3)
    n_reps = len(enumerate_reps(props("S3", "discrete", 3).group, 3))
    assert manifest.total_instances == 3 * n_reps * n_reps
    assert len(calls) == n_reps


def _nonzero_components(gens):
    """Finest partition of the basis indices that every generator maps into
    itself: connected components of the generators' joint nonzero pattern,
    each sorted, ordered by smallest index."""
    d = gens[0].shape[0]
    reach = np.eye(d, dtype=int) + sum((g != 0) | (g.T != 0) for g in gens)
    for _ in range(d.bit_length()):  # transitive closure by repeated squaring
        reach = ((reach @ reach) > 0).astype(int)
    return [np.flatnonzero(reach[i]) for i in range(d) if not reach[i, :i].any()]


GATE_SWEEPS = [
    ("SO3", 1), ("SO3", 3), ("SO3", 7), ("SO3", 9), ("SU2", 1), ("SU2", 2), ("SU2", 5), ("SU2", 8),
    ("Z2", 2), ("Z3", 1), ("Z4", 3), ("Z5", 3), ("S3", 3), ("S3", 5), ("A4", 3), ("A4", 4), ("D5", 4), ("D6", 4),
]


@pytest.mark.parametrize("name,d", GATE_SWEEPS)
def test_split_is_the_nonzero_pattern_components(name, d):
    # One part per label irrep, at its offset, is the finest split that the
    # generators' nonzero pattern shows, with the same sub-block bytes.
    spec = props(name, infer_kind(name), d).group
    for label in enumerate_reps(spec, d):
        rep = materialize(spec, label)
        components = _nonzero_components(rep.generator_matrices)
        assert len(rep.split) == len(components) == len(label.parts)
        for part, index in zip(rep.split, components):
            assert np.array_equal(part.index, index)
            assert part.content == tuple(g[np.ix_(index, index)].tobytes() for g in rep.generator_matrices)


def _distinct_blocks(name, d):
    """Cache key -> (system, row part, column part), one block per distinct
    key over the whole sweep."""
    kind = infer_kind(name)
    spec = props(name, kind, d).group
    build = build_discrete_system if kind == "discrete" else build_lie_system
    reps_ = [materialize(spec, lab) for lab in enumerate_reps(spec, d)]
    blocks = {}
    for omega in omega_candidates(spec, d):
        for D1 in reps_:
            for D2 in reps_:
                system = build(D1, D2, omega)
                for rows in system.row_parts:
                    for cols in system.col_parts:
                        blocks.setdefault(system.key(rows, cols), (system, rows, cols))
    return blocks


def test_sweep_builds_a_block_only_on_a_cache_miss(monkeypatch):
    # A system holds only its parts: a sweep builds and factors a block's
    # matrices once per distinct cache key.
    distinct = set(_distinct_blocks("SO3", 7))
    keys = []
    factor = kernels._factor

    def counted(blocks, cache):
        assert all(system.key(rows, cols) == key for key, (system, rows, cols) in blocks.items())
        keys.extend(blocks)
        factor(blocks, cache)

    monkeypatch.setattr(kernels, "_factor", counted)
    run_enumeration("SO3", None, 7)
    assert len(keys) == len(set(keys)) and set(keys) == distinct


def _dense_kernel(system, rows, cols, tol):
    stacked = np.vstack(_matrices(system, rows, cols))
    if not np.any(stacked):
        return np.eye(system.entries(rows, cols).size)
    _, svals, vh = np.linalg.svd(stacked)
    return vh[int(np.sum(svals > tol * max(1.0, svals[0]))) :].conj().T


def _is_diagonal(g):
    return np.array_equal(g, np.diag(np.diag(g)))


def _free_entries(system, rows, cols):
    """The entries, in the block's own order, that no generator with
    diagonal row, column and Omega sub-blocks forces to zero: the zeros of
    its defect of the all-ones stack.  Discrete blocks keep every entry."""
    shape = (system.K, rows.index.size, cols.index.size)
    free = np.ones(shape, dtype=bool)
    for a, b, om in zip(rows.generators, cols.generators, system.omega_gens):
        if system.kind == "lie" and all(_is_diagonal(g) for g in (a, b, om)):
            free &= kernels._defect(system.kind, a, b, om, np.ones(shape, dtype=complex)) == 0
    return np.flatnonzero(free)


def _block_kernel(system, rows, cols):
    """The block's basis, factored alone with a fresh cache."""
    return kernels._kernels([(system, rows, cols)], {})[0]


def test_weight_space_kernel_matches_dense_svd(monkeypatch):
    # Each block is factored on its free entries only; its kernel must span
    # what the full dense SVD of the block's matrices spans.
    rng = np.random.default_rng(22)
    su2 = props("SU2", "lie", 3).group
    rep = materialize(su2, make_rep_label(su2, (0, 1)))
    D1, D2 = (rotated(rep, random_unitary(rng, 3)) for _ in range(2))
    system = rotated_system("lie", D1, D2, su2.irrep_by_index(1))
    (dense,) = [(system, rows, cols) for rows in system.row_parts for cols in system.col_parts]
    discrete = [*_distinct_blocks("Z4", 3).values()]  # diagonal generators, but no cut
    blocks = [*_distinct_blocks("SO3", 7).values(), *_distinct_blocks("SU2", 5).values(), dense, *discrete]
    svd_inputs = []
    original = np.linalg.svd

    def spy(a, *args, **kwargs):
        svd_inputs.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    cut = 0
    for system, rows, cols in blocks:
        svd_inputs.clear()
        basis = _block_kernel(system, rows, cols)
        factored = list(svd_inputs)
        ref = _dense_kernel(system, rows, cols, 1e-10)
        assert basis.shape == ref.shape
        assert np.linalg.norm(_projector(basis) - _projector(ref)) <= 1e-9
        K, r, c = system.K, rows.index.size, cols.index.size
        lz_diagonal = system.kind == "lie" and all(
            _is_diagonal(g) for g in (rows.generators[2], cols.generators[2], system.omega_gens[2])
        )
        free = _free_entries(system, rows, cols)
        if lz_diagonal:
            assert free.size <= K * min(r, c)
            cut += 1
        else:
            assert np.array_equal(free, np.arange(K * r * c))
        assert all(shape[-1] == free.size for shape in factored)  # inputs are batched: (blocks, rows, columns)
    assert cut == len(blocks) - 1 - len(discrete)


def _all_rows_kernel(system, rows, cols):
    """The block's kernel from the SVD of its matrices on the free entries
    with every row kept, embedded at those entries."""
    free = _free_entries(system, rows, cols)
    stacked = np.vstack(kernels._columns(system, rows, cols, free))
    if not np.any(stacked):
        kernel = np.eye(free.size)
    else:
        _, svals, vh = np.linalg.svd(stacked, full_matrices=False)
        kernel = vh[int(np.sum(svals > kernels.TOL_KERNEL * max(1.0, svals[0]))) :].conj().T
    basis = np.zeros((system.entries(rows, cols).size, kernel.shape[1]), dtype=complex)
    basis[free] = kernel
    return basis


def test_lie_blocks_factor_only_their_nonzero_rows(monkeypatch):
    # Dropping the zero rows keeps each kernel; a block with no free entry
    # (spin 1/2 against spin 0 under an integer spin) is never factored.
    svd_inputs = []
    original = np.linalg.svd

    def spy(a, *args, **kwargs):
        svd_inputs.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    empty = 0
    for system, rows, cols in [*_distinct_blocks("SO3", 9).values(), *_distinct_blocks("SU2", 6).values()]:
        svd_inputs.clear()
        basis = _block_kernel(system, rows, cols)
        factored = list(svd_inputs)
        free = _free_entries(system, rows, cols)
        if not free.size:
            empty += 1
            assert basis.shape == (system.K * rows.index.size * cols.index.size, 0) and not factored
            continue
        ref = _all_rows_kernel(system, rows, cols)
        assert basis.shape == ref.shape
        assert np.linalg.norm(_projector(basis) - _projector(ref)) <= 1e-12
        nonzero = np.vstack(kernels._columns(system, rows, cols, free)).any(axis=1)
        assert all(shape[-2] == np.count_nonzero(nonzero) < nonzero.size for shape in factored)
    assert empty > 0


def test_lie_assembly_is_the_unit_vector_build_on_free_entries_and_nonzero_rows():
    # The weight-space assembly of all of a system's blocks at once gives, for
    # each block, the unit-vector build's columns at the free entries with its
    # zero rows left out, entry for entry.
    blocks = [*_distinct_blocks("SO3", 9).values(), *_distinct_blocks("SU2", 6).values()]
    by_system = {}
    for system, rows, cols in blocks:
        by_system.setdefault(id(system), (system, []))[1].append((rows, cols))
    checked = 0
    for system, pairs in by_system.values():
        for (rows, cols), (free, matrix) in zip(pairs, kernels._lie_matrices(system, pairs), strict=True):
            assert np.array_equal(free, _free_entries(system, rows, cols))
            ref = np.vstack([np.zeros((0, free.size)), *kernels._columns(system, rows, cols, free)])
            ref = ref[ref.any(axis=1)]
            assert matrix.shape == ref.shape and np.array_equal(matrix, ref)
            checked += 1
    assert checked == len(blocks)


@pytest.mark.parametrize("name, d", [("SO3", 7), ("SU2", 5)])
def test_block_table_makes_one_svd_call_per_block_shape(monkeypatch, name, d):
    spec = props(name, "lie", d).group
    reps_ = [materialize(spec, lab) for lab in enumerate_reps(spec, d)]
    shapes = []
    original = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(a.shape[-2:])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    pipeline._counts("lie", reps_, omega_candidates(spec, d), {})
    assert shapes and len(shapes) == len(set(shapes))


def test_block_columns_are_the_matrices_columns():
    # the restricted build and the full view share one assembly routine
    for system, rows, cols in [*_distinct_blocks("SU2", 3).values(), *_distinct_blocks("Z4", 2).values()]:
        picked = _free_entries(system, rows, cols)[::2]
        for part, full in zip(kernels._columns(system, rows, cols, picked), _matrices(system, rows, cols)):
            assert np.array_equal(part, full[:, picked])


def test_intertwiner_needs_equivalent_irreps():
    d5 = props("D5", "discrete", 2).group
    one, two = (d5.irrep_by_index(i).generator_matrices for i in (2, 3))  # 2_1 and 2_2
    T = intertwiner(one, one)
    assert np.linalg.norm(T - np.eye(2)) <= 1e-12
    with pytest.raises(DimMismatch):
        intertwiner(one, two)
