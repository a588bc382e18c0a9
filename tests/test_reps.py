"""Representation enumeration: multiset counts, block sums, channel labels."""

import itertools

import numpy as np
import pytest
import scipy.linalg

from gcec.classes import LabelClasses
from gcec.errors import DimensionZero, UnknownIrrepIndex
from gcec.groups import cayley_table, character_table, props, word_matrix
from gcec.reps import enumerate_reps, make_rep_label, materialize, omega_candidates

from oracles import partitions_all, partitions_odd


def test_enumeration_counts_discrete():
    assert len(enumerate_reps(props("S3", "discrete", 3).group, 3)) == 6
    assert len(enumerate_reps(props("A4", "discrete", 3).group, 3)) == 11
    assert len(enumerate_reps(props("D5", "discrete", 3).group, 3)) == 8
    assert len(enumerate_reps(props("Z2", "discrete", 2).group, 2)) == 3


def test_enumeration_reaches_large_dimensions():
    # no recursion per part: these dimensions lie past Python's default
    # recursion limit, and each label is still found once
    labels = enumerate_reps(props("Z1", "discrete", 1100).group, 1100)
    assert len(labels) == 1 and labels[0].total_dim == 1100
    assert len(enumerate_reps(props("Z2", "discrete", 1200).group, 1200)) == 1201


def test_enumeration_counts_lie_match_partition_oracle():
    for d in range(1, 9):
        su2 = props("SU2", "lie", d).group
        assert len(enumerate_reps(su2, d)) == partitions_all(d)
        so3 = props("SO3", "lie", d).group
        assert len(enumerate_reps(so3, d)) == partitions_odd(d)


def test_labels_unique_and_sorted():
    for name, d in [("S3", 3), ("A4", 3), ("D5", 3), ("D4", 4)]:
        spec = props(name, "discrete", d).group
        labels = enumerate_reps(spec, d)
        texts = [lab.text for lab in labels]
        assert len(set(texts)) == len(texts)
        assert [lab.parts for lab in labels] == sorted(lab.parts for lab in labels)
        assert all(sum(spec.irrep_by_index(i).dim for i in lab.parts) == d for lab in labels)


def test_make_rep_label_canonicalizes_order():
    spec = props("S3", "discrete", 3).group
    assert make_rep_label(spec, (2, 0)).parts == make_rep_label(spec, (0, 2)).parts
    assert make_rep_label(spec, (0, 2)).text == "1+2"
    with pytest.raises(UnknownIrrepIndex):
        make_rep_label(spec, (0, 9))


def test_materialize_is_block_diagonal():
    spec = props("S3", "discrete", 3).group
    lab = make_rep_label(spec, (0, 2))
    rep = materialize(spec, lab)
    assert rep.dim == 3
    for g_idx, mat in enumerate(rep.generator_matrices):
        one = spec.irrep_by_index(0).generator_matrices[g_idx]
        two = spec.irrep_by_index(2).generator_matrices[g_idx]
        assert mat[0, 0] == one[0, 0]
        assert np.allclose(mat[1:, 1:], two)
        assert np.linalg.norm(mat[0, 1:]) == 0.0
        assert np.linalg.norm(mat[1:, 0]) == 0.0
    # three parts (1'+1''+3) with complex entries: bitwise scipy's block_diag
    spec = props("A4", "discrete", 5).group
    rep = materialize(spec, make_rep_label(spec, (3, 2, 1)))
    for g_idx, mat in enumerate(rep.generator_matrices):
        want = scipy.linalg.block_diag(*(spec.irrep_by_index(p).generator_matrices[g_idx] for p in (1, 2, 3)))
        assert mat.dtype == want.dtype == np.complex128 and mat.tobytes() == want.tobytes()


def test_materialized_reps_satisfy_relations():
    for name, d in [("S3", 3), ("A4", 3), ("D5", 3)]:
        spec = props(name, "discrete", d).group
        for lab in enumerate_reps(spec, d):
            rep = materialize(spec, lab)
            fake = type(spec.irreps[0])(
                index=-1, dim=d, label=lab.text, generator_matrices=rep.generator_matrices
            )
            for lhs, rhs in spec.relations:
                assert (
                    np.linalg.norm(word_matrix(fake, lhs) - word_matrix(fake, rhs))
                    <= 1e-12
                )


def test_materialized_lie_reps_satisfy_commutators():
    spec = props("SU2", "lie", 4).group
    for lab in enumerate_reps(spec, 4):
        lp, lm, lz = materialize(spec, lab).generator_matrices
        assert np.linalg.norm(lz @ lp - lp @ lz - lp) <= 1e-12
        assert np.linalg.norm(lp @ lm - lm @ lp - 2 * lz) <= 1e-12


def test_omega_candidates():
    s3 = props("S3", "discrete", 3).group
    assert [om.dim for om in omega_candidates(s3, 3)] == [1, 1, 2]
    assert [om.dim for om in omega_candidates(s3, 2)] == [1, 1, 2]
    so3 = props("SO3", "lie", 5).group
    assert [om.dim for om in omega_candidates(so3, 5)] == [1, 3, 5]
    a4 = props("A4", "discrete", 3).group
    assert [om.dim for om in omega_candidates(a4, 3)] == [1, 1, 1, 3]


def test_dimension_zero_rejected():
    spec = props("S3", "discrete", 3).group
    with pytest.raises(DimensionZero):
        enumerate_reps(spec, 0)


# Every irrep of each group is kept at these dimensions.
CLASS_GROUPS = [("Z2", 1), ("Z6", 1), ("S3", 2), ("A4", 3), ("D5", 2)]


def _classes(name, d):
    spec = props(name, "discrete", d).group
    return spec, LabelClasses(spec)


@pytest.mark.parametrize("name,d", CLASS_GROUPS)
def test_moves_permute_irreps_by_character_inner_products(name, d):
    spec, classes = _classes(name, d)
    table = np.asarray(character_table(spec))
    chi = {ir.index: row for ir, row in zip(spec.irreps, table)}
    chars = [ir.index for ir in spec.irreps if ir.dim == 1]
    assert sorted(classes.twist_of) == chars

    def multiplicity(q, character):  # <chi_q, character> over the group
        return np.sum(chi[q].conj() * character) / table.shape[1]

    for p in chi:
        for q in chi:
            assert abs(multiplicity(q, chi[p].conj()) - (q == classes.conj_of[p])) <= 1e-12
            for s in chars:
                assert abs(multiplicity(q, chi[p] * chi[s]) - (q == classes.twist_of[s][p])) <= 1e-12


def test_cyclic_characters_carry_roundoff():
    # The moves match Z2's q1 = -1 + 1.2e-16j to itself under conjugation.
    spec, classes = _classes("Z2", 1)
    assert spec.irrep_by_index(1).generator_matrices[0][0, 0].imag != 0.0
    assert classes.conj_of == {0: 0, 1: 1}
    assert classes.twist_of == {0: {0: 0, 1: 1}, 1: {0: 1, 1: 0}}


@pytest.mark.parametrize("name,d", CLASS_GROUPS)
def test_move_unitaries_intertwine_each_generator(name, d):
    spec, classes = _classes(name, d)
    for ir in spec.irreps:
        for twist in classes.twist_of:
            for conj in (False, True):
                T = classes.unitary(ir.index, twist, conj)
                image = spec.irrep_by_index(classes.irrep_image(ir.index, twist, conj))
                assert np.linalg.norm(T.conj().T @ T - np.eye(ir.dim)) <= 1e-12
                chi = spec.irrep_by_index(twist).generator_matrices
                for g, z, target in zip(ir.generator_matrices, chi, image.generator_matrices):
                    moved = (g.conj() if conj else g) * z[0, 0]
                    assert np.linalg.norm(T.conj().T @ moved @ T - target) <= 1e-12


@pytest.mark.parametrize("name,d", [("Z4", 3), ("S3", 5), ("A4", 4), ("D5", 4)])
def test_move_placements_intertwine_whole_representations(name, d):
    spec, classes = _classes(name, d)
    by_parts = {lab.parts: lab for lab in enumerate_reps(spec, d)}
    for lab in by_parts.values():
        rep = materialize(spec, lab)
        for twist in classes.twist_of:
            for conj in (False, True):
                P = classes.placement(lab.parts, twist, conj)
                image = materialize(spec, by_parts[classes.parts_image(lab.parts, twist, conj)])
                assert np.linalg.norm(P.conj().T @ P - np.eye(d)) <= 1e-12
                chi = spec.irrep_by_index(twist).generator_matrices
                for g, z, target in zip(rep.generator_matrices, chi, image.generator_matrices):
                    moved = (g.conj() if conj else g) * z[0, 0]
                    assert np.linalg.norm(P.conj().T @ moved @ P - target) <= 1e-12


# Groups and dimensions for the automorphism moves, with the number of
# automorphisms kept beside the identity (one per irrep permutation that
# twists and conjugation do not give).
AUT_GROUPS = [("D5", 4, 1), ("D6", 4, 1), ("Z5", 3, 1), ("A4", 4, 0), ("S3", 5, 0)]


@pytest.mark.parametrize("name,d,kept", AUT_GROUPS)
def test_automorphisms_permute_irreps_by_character_inner_products(name, d, kept):
    spec, classes = _classes(name, d)
    assert len(classes.aut_words) == 1 + kept and classes.aut_of[0] == {p: p for p in classes.irreps}
    words = cayley_table(spec)[0]
    table = np.asarray(character_table(spec))
    for aut in range(1, len(classes.aut_words)):
        for ir in spec.irreps:
            # chi_p o alpha at each element: the trace of the product of its
            # generators' image words
            moved = []
            for w in words:
                at = np.eye(ir.dim, dtype=complex)
                for g in w:
                    at = at @ word_matrix(ir, classes.aut_words[aut][g])
                moved.append(np.trace(at))
            for row, q in zip(table, spec.irreps):
                want = q.index == classes.aut_of[aut][ir.index]
                assert abs(np.sum(row.conj() * np.array(moved)) / len(words) - want) <= 1e-12
        # the permutation is neither the identity nor conjugation
        assert classes.aut_of[aut] not in ({p: p for p in classes.irreps}, classes.conj_of)


@pytest.mark.parametrize("name,d", [("D8", 2), ("D6", 1), ("D6", 4), ("Z12", 1), ("A4", 3), ("S3", 3)])
def test_automorphism_search_misses_no_irrep_permutation(name, d):
    # Every choice of generator images, without the search's cuts by element
    # order and conjugacy class: each automorphism's irrep permutation, read
    # by character inner products, is one the kept moves give.
    spec, classes = _classes(name, d)
    words, _, mult = cayley_table(spec)
    table = np.asarray(character_table(spec, words))
    given = [
        tuple(classes.conj_of[aut[p]] if conj else aut[p] for p in classes.irreps)
        for aut in classes.aut_of
        for conj in (False, True)
    ]
    found = set()
    for images in itertools.product(range(len(words)), repeat=spec.num_generators):
        def alpha(word):
            at = 0
            for g in word:
                at = mult[at, images[g]]
            return at

        if any(alpha(lhs) != alpha(rhs) for lhs, rhs in spec.relations):
            continue
        row = [alpha(w) for w in words]
        if sorted(row) != list(range(len(words))):
            continue
        inner = table[:, row] @ table.conj().T / len(words)  # [p, q] = <chi_p o alpha, chi_q>
        assert np.allclose(inner, np.round(inner.real)) and (np.round(inner.real).sum(axis=1) == 1).all()
        found.add(tuple(spec.irreps[q].index for q in np.argmax(inner.real, axis=1)))
    assert found and found <= set(given)


def test_d5_automorphism_swaps_the_two_dimensional_irreps():
    spec, classes = _classes("D5", 4)
    label = {ir.index: ir.label for ir in spec.irreps}
    assert {label[p]: label[q] for p, q in classes.aut_of[1].items()} == {"1": "1", "1'": "1'", "2_1": "2_2", "2_2": "2_1"}


@pytest.mark.parametrize("name,d", [("D5", 4), ("D6", 4), ("D6", 1), ("Z5", 3), ("S3", 3)])
def test_move_label_actions_are_closed_under_composition(name, d):
    spec, classes = _classes(name, d)

    def action(m):  # (Omega, D1, D2) irrep permutations of a move
        return tuple(
            tuple(classes.irrep_image(p, twist, m.conj, m.aut) for p in classes.irreps)
            for twist in (m.u, m.s, m.t)
        )

    position = {p: i for i, p in enumerate(classes.irreps)}
    actions = {action(m) for m in classes.moves}
    for a in actions:
        for b in actions:
            composed = tuple(tuple(y[position[x]] for x in xs) for xs, y in zip(a, b))
            assert composed in actions


@pytest.mark.parametrize("name,d", [("D5", 4), ("Z5", 3), ("D6", 4)])
def test_automorphism_placements_intertwine_whole_representations(name, d):
    spec, classes = _classes(name, d)
    by_parts = {lab.parts: lab for lab in enumerate_reps(spec, d)}
    for lab in by_parts.values():
        rep = materialize(spec, lab)
        for aut in range(1, len(classes.aut_words)):
            for twist in classes.twist_of:
                for conj in (False, True):
                    P = classes.placement(lab.parts, twist, conj, aut)
                    image = materialize(spec, by_parts[classes.parts_image(lab.parts, twist, conj, aut)])
                    assert np.linalg.norm(P.conj().T @ P - np.eye(d)) <= 1e-12
                    # conj^c(rep o alpha) chi_twist at each generator, from
                    # the automorphism's generator words
                    chi = spec.irrep_by_index(twist).generator_matrices
                    for w, z, target in zip(classes.aut_words[aut], chi, image.generator_matrices):
                        moved = (word_matrix(rep, w).conj() if conj else word_matrix(rep, w)) * z[0, 0]
                        assert np.linalg.norm(P.conj().T @ moved @ P - target) <= 1e-12


# (group, d, nonunitary_only, classes): the twists and conjugation alone
# give D5 d=4* 200, Z5 d=3 127, D6 d=4 1460 and D6 d=1 4 classes
CLASS_COUNTS = [
    ("D5", 4, True, 100), ("Z5", 3, False, 64), ("D6", 4, False, 932), ("S3", 5, True, 36),
    ("A4", 4, True, 26), ("Z4", 3, False, 59), ("Z2", 2, False, 5), ("Z3", 1, False, 2),
    ("D6", 1, False, 2),  # five automorphisms kept: D6/N is the Klein group
]


@pytest.mark.parametrize("name,d,nonunitary_only,count", CLASS_COUNTS)
def test_label_class_counts(name, d, nonunitary_only, count):
    spec, classes = _classes(name, d)
    labels = [lab.parts for lab in enumerate_reps(spec, d)]
    omegas = [om.index for om in omega_candidates(spec, d) if om.dim >= 2 or not nonunitary_only]
    heads = {classes.representative((om, a, b))[0] for om in omegas for a in labels for b in labels}
    assert len(heads) == count
    # Burnside: the number of orbits is the mean number of instances that
    # an element of the group of label actions fixes
    actions = {}
    for m in classes.moves:
        actions.setdefault(tuple(tuple(classes.irrep_image(p, tw, m.conj, m.aut) for p in classes.irreps)
                                 for tw in (m.u, m.s, m.t)), m)
    fixed = 0
    for m in actions.values():
        fixed += (
            sum(classes.irrep_image(om, m.u, m.conj, m.aut) == om for om in omegas)
            * sum(classes.parts_image(a, m.s, m.conj, m.aut) == a for a in labels)
            * sum(classes.parts_image(b, m.t, m.conj, m.aut) == b for b in labels)
        )
    assert fixed == count * len(actions)
