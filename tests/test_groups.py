"""Catalog correctness: irrep matrices, relations, characters, counts."""

import numpy as np
import pytest

from gcec import kernels
from gcec.errors import DimensionZero, ParityError, UnknownGroup, UnknownIrrepIndex
from gcec.groups import (
    cayley_table,
    character_table,
    infer_kind,
    lie_irrep,
    props,
    word_matrix,
)
from gcec.reps import make_rep_label, materialize

DISCRETE_CASES = [
    ("Z2", 2, 2),
    ("Z3", 3, 3),
    ("Z5", 2, 5),
    ("S3", 3, 6),
    ("A4", 3, 12),
    ("D4", 3, 8),
    ("D5", 3, 10),
    ("D6", 4, 12),
]


def test_generators_unitary():
    for name, d, _ in DISCRETE_CASES:
        spec = props(name, "discrete", d).group
        for ir in spec.irreps:
            for g in ir.generator_matrices:
                assert np.linalg.norm(g.conj().T @ g - np.eye(ir.dim)) <= 1e-12


def test_defining_relations_hold_in_every_irrep():
    for name, d, _ in DISCRETE_CASES:
        spec = props(name, "discrete", d).group
        assert spec.relations, name
        for ir in spec.irreps:
            for lhs, rhs in spec.relations:
                left = word_matrix(ir, lhs)
                right = word_matrix(ir, rhs)
                assert np.linalg.norm(left - right) <= 1e-12, (name, ir.label, lhs)


def test_group_orders_by_closure():
    for name, d, order in DISCRETE_CASES:
        spec = props(name, "discrete", d).group
        assert len(cayley_table(spec)[0]) == order


def test_sum_of_squared_irrep_dims_is_group_order():
    for name, d, order in DISCRETE_CASES:
        spec = props(name, "discrete", d).group
        assert sum(ir.dim**2 for ir in spec.irreps) == order


def test_character_rows_orthogonal():
    for name, d, order in DISCRETE_CASES:
        spec = props(name, "discrete", d).group
        table = np.asarray(character_table(spec))
        gram = table @ table.conj().T / order
        assert np.linalg.norm(gram - np.eye(len(spec.irreps))) <= 1e-10, name


@pytest.mark.parametrize(
    "name,d,quotient_order",
    [("S3", 1, 2), ("A4", 1, 3), ("D5", 1, 2), ("S3", 2, 6), ("A4", 3, 12), ("D5", 2, 10)],
)
def test_restricted_spec_enumerates_the_quotient(name, d, quotient_order):
    # Only the irreps of dimension <= d are kept, so the words enumerate
    # G/N for N the common kernel of the kept irreps (S3, A4 and D5 at d=1
    # keep their 1-dimensional irreps alone); the kept rows stay
    # orthonormal under the 1/|G/N| inner product.
    spec = props(name, "discrete", d).group
    assert len(cayley_table(spec)[0]) == quotient_order
    table = np.asarray(character_table(spec))
    assert table.shape == (len(spec.irreps), quotient_order)
    gram = table @ table.conj().T / quotient_order
    assert np.linalg.norm(gram - np.eye(len(spec.irreps))) <= 1e-10


def test_s3_two_dim_irrep_matrices():
    spec = props("S3", "discrete", 3).group
    two = spec.irrep_by_index(2)
    s1, s2 = two.generator_matrices
    assert np.allclose(s1, np.diag([1.0, -1.0]), atol=1e-15)
    expected = np.array([[-0.5, np.sqrt(3) / 2], [np.sqrt(3) / 2, 0.5]])
    assert np.allclose(s2, expected, atol=1e-15)


def test_s3_sign_irrep_respects_braid_relation():
    # both generators are transpositions, so the 1-dim sign irrep sends
    # each to -1; (+1, -1) would break s1 s2 s1 = s2 s1 s2
    spec = props("S3", "discrete", 3).group
    sign = spec.irrep_by_index(1)
    assert sign.generator_matrices[0][0, 0] == -1
    assert sign.generator_matrices[1][0, 0] == -1


def test_a4_one_dim_irreps_are_cube_root_twists():
    spec = props("A4", "discrete", 3).group
    w = np.exp(2j * np.pi / 3)
    values = {
        (complex(ir.generator_matrices[0][0, 0]), complex(ir.generator_matrices[1][0, 0]))
        for ir in spec.irreps
        if ir.dim == 1
    }
    want = {(1 + 0j, 1 + 0j), (w, w * w), (w * w, w)}
    assert all(
        any(abs(a - x) < 1e-12 and abs(b - y) < 1e-12 for (x, y) in want)
        for (a, b) in values
    )
    assert len(values) == 3


def test_dihedral_rotation_angles():
    spec = props("D5", "discrete", 3).group
    for k, ir in enumerate([i for i in spec.irreps if i.dim == 2], start=1):
        rot = ir.generator_matrices[1]
        angle = 2 * np.pi * k / 5
        expected = np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        )
        assert np.linalg.norm(rot - expected) <= 1e-12


def test_even_dihedral_has_four_one_dim_irreps():
    spec = props("D4", "discrete", 3).group
    assert sum(1 for ir in spec.irreps if ir.dim == 1) == 4
    spec = props("D5", "discrete", 3).group
    assert sum(1 for ir in spec.irreps if ir.dim == 1) == 2


@pytest.mark.parametrize("algebra,dims", [("su2", range(1, 9)), ("so3", range(1, 9, 2))])
def test_ladder_commutators(algebra, dims):
    for dim in dims:
        ir = lie_irrep(algebra, dim)
        lp, lm, lz = ir.generator_matrices
        assert np.linalg.norm(lz @ lp - lp @ lz - lp) <= 1e-12
        assert np.linalg.norm(lz @ lm - lm @ lz + lm) <= 1e-12
        assert np.linalg.norm(lp @ lm - lm @ lp - 2 * lz) <= 1e-12


def test_ladder_matrix_entries_descending_weights():
    ir = lie_irrep("su2", 4)  # j = 3/2
    lp, lm, lz = ir.generator_matrices
    assert np.allclose(np.diag(lz), [1.5, 0.5, -0.5, -1.5])
    j = 1.5
    for col in range(1, 4):
        m = j - col  # raising acts on weight m, landing on m+1
        assert abs(lp[col - 1, col] - np.sqrt(j * (j + 1) - m * (m + 1))) <= 1e-12
    assert np.linalg.norm(lm - lp.conj().T) == 0.0


def test_so3_rejects_even_dims():
    with pytest.raises(ParityError):
        lie_irrep("so3", 4)
    lie_irrep("so3", 5)  # odd is fine


def test_dimension_zero_rejected():
    with pytest.raises(DimensionZero):
        lie_irrep("su2", 0)
    with pytest.raises(DimensionZero):
        props("S3", "discrete", 0)


def test_unknown_group_names():
    with pytest.raises(UnknownGroup):
        props("S4", "discrete", 3)
    with pytest.raises(UnknownGroup):
        props("E8", "lie", 3)
    with pytest.raises(UnknownGroup):
        props("SO3", "discrete", 3)  # kind mismatch
    with pytest.raises(UnknownGroup):
        props("S3", "lie", 3)
    # one name per group: a numeral with a leading zero or a non-ASCII digit names none
    for name in ("Z02", "D05", "Z0", "D1", "D01", "Z+2", "Z 2", "Z\u0662"):
        with pytest.raises(UnknownGroup):
            props(name, "discrete", 1)


def test_infer_kind():
    assert infer_kind("S3") == "discrete"
    assert infer_kind("Z7") == "discrete"
    assert infer_kind("SO3") == "lie"
    assert infer_kind("SU2") == "lie"


def test_props_counts_match_catalog_examples():
    assert props("S3", "discrete", 3).num_reps == 6
    assert props("A4", "discrete", 3).num_reps == 11
    assert props("D5", "discrete", 3).num_reps == 8
    assert props("Z2", "discrete", 2).num_reps == 3
    assert props("SO3", "lie", 3).num_reps == 2
    assert props("SU2", "lie", 3).num_reps == 3


def test_props_restricts_irreps_to_hilbert_dim():
    payload = props("S3", "discrete", 1)
    assert all(ir.dim <= 1 for ir in payload.group.irreps)
    assert payload.num_reps == 2  # the two 1-dim labels


def test_irrep_by_index_unknown():
    spec = props("S3", "discrete", 3).group
    with pytest.raises(UnknownIrrepIndex):
        spec.irrep_by_index(17)


def test_lie_props_generators_are_algebra_elements():
    payload = props("SU2", "lie", 4)
    assert payload.group.generator_names == ("L+", "L-", "Lz")
    for ir in payload.group.irreps:
        lp, lm, lz = ir.generator_matrices
        assert np.linalg.norm(lp @ lm - lm @ lp - 2 * lz) <= 1e-12


# every finite group at a dimension that keeps all its irreps; SO3 and SU2
# with their irreps up to dimensions 13 and 12
CATALOG = [
    ("Z2", 1), ("Z3", 1), ("Z4", 1), ("Z5", 1), ("S3", 2), ("A4", 3), ("D5", 2), ("D6", 2), ("D7", 2), ("SO3", 13), ("SU2", 12)
]


@pytest.mark.parametrize("name,d", CATALOG)
def test_catalog_irreps_are_irreducible_and_pairwise_inequivalent(name, d):
    # By Schur's lemma the trivial-label Schur block from irrep b to irrep a
    # has a kernel of dimension 1 when a = b is irreducible and 0 when a and
    # b are inequivalent irreducibles, so the table of those kernel
    # dimensions over the catalog is the identity exactly when every irrep
    # is irreducible and no two are equivalent.  This is what lets
    # gcec.tp read trace preservation off a representation's split.
    kind = infer_kind(name)
    spec = props(name, kind, d).group
    if kind == "discrete":
        assert len(spec.irreps) == len(props(name, kind, d + 3).group.irreps)
    parts = materialize(spec, make_rep_label(spec, [ir.index for ir in spec.irreps])).split
    one = np.ones((1, 1)) if kind == "discrete" else np.zeros((1, 1))
    (trivial,) = [ir for ir in spec.irreps if all(np.array_equal(g, one) for g in ir.generator_matrices)]
    table = kernels.kernel_dims(kind, parts, [trivial], {})[0]
    assert np.array_equal(table, np.eye(len(spec.irreps), dtype=int))
