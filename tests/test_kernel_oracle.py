"""Kernel dimensions and statuses over full sweeps against representation theory.

Every instance of each sweep is checked: ``n_params`` equals the character
(finite groups) or Clebsch-Gordan (SO3/SU2) count, the basis is
orthonormal and each column satisfies the covariance relations.  Together
these say the basis spans exactly the covariant operators.  Every record
of the same sweeps, and of SO3 d=9, has the status that the TP existence
count (:func:`oracles.tp_exists`) gives.
"""

import numpy as np
import pytest

from gcec.groups import character_table, infer_kind, props
from gcec.kernels import build_discrete_system, build_lie_system, covariance_residual, joint_nullspace
from gcec.pipeline import run_enumeration
from gcec.reps import Rep, enumerate_reps, make_rep_label, materialize, omega_candidates

from oracles import character_n_params, clebsch_gordan_n_params, random_unitary, tp_exists

SWEEPS = [
    ("Z2", 2),
    ("Z3", 1),
    ("Z4", 3),
    ("S3", 3),
    ("A4", 3),
    ("D5", 3),
    # the small Lie sweeps hold spin-0 parts, whose generators are 1x1
    # zeros: the edge case of the weight-space cut
    ("SO3", 1),
    ("SO3", 3),
    ("SO3", 5),
    ("SO3", 7),
    ("SU2", 1),
    ("SU2", 2),
    ("SU2", 4),
    ("SU2", 5),
]


def _oracle(spec, kind):
    """n_params(D1 parts, D2 parts, Omega index) from representation theory."""
    if kind == "discrete":
        table = np.asarray(character_table(spec))
        row = {ir.index: i for i, ir in enumerate(spec.irreps)}
        return lambda p1, p2, om: character_n_params(
            table, [row[p] for p in p1], [row[p] for p in p2], row[om]
        )
    dim = {ir.index: ir.dim for ir in spec.irreps}
    return lambda p1, p2, om: clebsch_gordan_n_params(
        [dim[p] for p in p1], [dim[p] for p in p2], dim[om]
    )


def _status_oracle(spec, kind):
    """The status of the record (D1 parts, D2 parts, Omega index) from the
    n_params count and the TP existence count; the input representation
    is D1 for finite groups and D2 for SO3/SU2."""
    count = _oracle(spec, kind)

    def status(p1, p2, om):
        if count(p1, p2, om) == 0:
            return "no_cp_map"
        if kind == "discrete":
            found = tp_exists(p1, lambda rho: count((rho,), p2, om))
        else:
            found = tp_exists(p2, lambda rho: count(p1, (rho,), om))
        return "channel_found" if found else "no_tp_solution"

    return status


def _check_family(family, D1, D2, omega, kind):
    n = family.n_params
    gram = family.basis.conj().T @ family.basis
    assert np.linalg.norm(gram - np.eye(n)) <= 1e-10
    for j in range(n):
        kraus = family.kraus_at(np.eye(n)[j])
        assert covariance_residual(kraus, D1, D2, omega, kind) <= 1e-9


@pytest.mark.parametrize("name,d", SWEEPS, ids=[f"{g}-d{d}" for g, d in SWEEPS])
def test_every_instance_matches_oracle(name, d):
    kind = infer_kind(name)
    spec = props(name, kind, d).group
    build = build_discrete_system if kind == "discrete" else build_lie_system
    expected = _oracle(spec, kind)
    reps = [materialize(spec, lab) for lab in enumerate_reps(spec, d)]
    cache = {}
    for omega in omega_candidates(spec, d):
        for D1 in reps:
            for D2 in reps:
                system = build(D1, D2, omega)
                family = joint_nullspace(system, cache=cache)
                assert family.n_params == expected(D1.label.parts, D2.label.parts, omega.index), (
                    D1.label.text, D2.label.text, omega.label
                )
                _check_family(family, D1, D2, omega, kind)
                # the block cache never changes the result
                assert np.array_equal(joint_nullspace(system).basis, family.basis)


STATUS_SWEEPS = SWEEPS + [("SO3", 9)]


@pytest.mark.parametrize("name,d", STATUS_SWEEPS, ids=[f"{g}-d{d}" for g, d in STATUS_SWEEPS])
def test_every_status_matches_tp_existence_count(name, d):
    kind = infer_kind(name)
    expected = _status_oracle(props(name, kind, d).group, kind)
    manifest = run_enumeration(name, None, d)
    assert manifest.count_found == sum(r.status == "channel_found" for r in manifest.records) > 0
    for rec in manifest.records:
        assert rec.status == expected(rec.d1_label.parts, rec.d2_label.parts, rec.omega_index), (
            rec.d1_label.text, rec.d2_label.text, rec.omega_label, rec.error
        )


@pytest.mark.parametrize("name,parts,omega_index", [("S3", (0, 2), 2), ("SU2", (0, 1), 1)])
def test_densely_rotated_reps_are_one_block(name, parts, omega_index):
    kind = infer_kind(name)
    spec = props(name, kind, 3).group
    build = build_discrete_system if kind == "discrete" else build_lie_system
    rep = materialize(spec, make_rep_label(spec, parts))
    omega = spec.irrep_by_index(omega_index)
    rng = np.random.default_rng(21)
    D1, D2 = (
        Rep(label=rep.label, generator_matrices=tuple(u @ g @ u.conj().T for g in rep.generator_matrices))
        for u in (random_unitary(rng, 3), random_unitary(rng, 3))
    )
    system = build(D1, D2, omega)
    assert len(system.row_parts) == len(system.col_parts) == 1
    family = joint_nullspace(system)
    assert family.n_params == _oracle(spec, kind)(parts, parts, omega_index)
    _check_family(family, D1, D2, omega, kind)
