"""Kraus sets, Choi matrices, unitary invariance, serialization."""

import numpy as np
import pytest

from gcec.channels import choi, kraus_from_dict, kraus_fields, matrix_to_json, tp_residuals
from gcec.errors import SchemaError

from fixtures import (
    a4_qutrit_triple,
    depolarizing_kraus,
    identity_kraus,
    kraus_dict,
    kraus_set,
    malformed_kraus_dicts,
    plain,
    random_full_rank_channel,
    s3_qutrit_family,
    su2_flip_family,
)
from oracles import random_unitary


def test_kraus_set_accessors():
    ks = kraus_set(s3_qutrit_family(0.5**0.5, 0.5**0.5, 0.5))
    assert ks.K == 2 and ks.d == 3
    assert tp_residuals(ks.matrices[None])[0] <= 1e-12


def _choi_of(mats):
    return choi(kraus_set(mats).matrices[None])[0]


def test_choi_identity_channel_rank_one():
    c = _choi_of(identity_kraus(2))
    v = np.eye(2).reshape(-1)
    assert np.linalg.norm(c - np.outer(v, v) / 2) <= 1e-14
    evals = np.linalg.eigvalsh(c)
    assert abs(evals[-1] - 1.0) <= 1e-12
    assert np.linalg.norm(evals[:-1]) <= 1e-12


def test_choi_depolarizing_is_maximally_mixed():
    d = 3
    c = _choi_of(depolarizing_kraus(d))
    assert np.linalg.norm(c - np.eye(d * d) / (d * d)) <= 1e-14


def test_choi_properties_on_tp_sets():
    rng = np.random.default_rng(24)
    sets = [
        s3_qutrit_family(0.6, 0.5**0.5, 1j * 0.32**0.5),
        a4_qutrit_triple(),
        su2_flip_family(4),
        random_full_rank_channel(rng, 2),
    ]
    for mats in sets:
        ks = kraus_set(mats)
        c = _choi_of(mats)
        assert c.shape == (ks.d**2, ks.d**2)
        assert np.linalg.norm(c - c.conj().T) <= 1e-13
        assert np.linalg.eigvalsh(c)[0] >= -1e-12
        assert abs(np.trace(c) - 1.0) <= 1e-12
        d = ks.d
        # tracing out the row index must leave the maximally mixed state
        reduced = np.einsum("ijik->jk", c.reshape(d, d, d, d))
        assert np.linalg.norm(reduced - np.eye(d) / d) <= 1e-12


def test_conjugate_preserves_tp_and_choi_spectrum():
    rng = np.random.default_rng(27)
    mats = kraus_set(a4_qutrit_triple()).matrices
    u, v = random_unitary(rng, 3), random_unitary(rng, 3)
    moved = u @ mats @ v
    assert tp_residuals(moved[None])[0] <= 1e-12
    before, after = np.linalg.eigvalsh(choi(np.stack([mats, moved])))
    assert np.linalg.norm(before - after) <= 1e-12


def test_json_round_trip_is_bit_exact():
    rng = np.random.default_rng(28)
    mats = random_full_rank_channel(rng, 3)
    ks = kraus_set(mats)
    back = kraus_from_dict(kraus_dict(mats))
    assert back.K == ks.K and back.d == ks.d
    for a, b in zip(ks.matrices, back.matrices):
        assert np.array_equal(a, b)


def test_json_pairs_are_the_elementwise_floats():
    rng = np.random.default_rng(29)
    ks = kraus_set(random_full_rank_channel(rng, 3))
    m = ks.matrices[0] * np.array([[-0.0, 1, 1], [1, 1, 1], [1, 1, 1]])
    for mat in (m, m.real, np.arange(9).reshape(3, 3)):
        pairs = [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat, dtype=complex)]
        assert repr(matrix_to_json(mat).tolist()) == repr(pairs)
    fields = kraus_fields(ks)
    assert fields["kraus"].shape == (ks.K, 3, 3, 2)
    assert plain(fields) == {"d": 3, "K": ks.K, "kraus": [matrix_to_json(a).tolist() for a in ks.matrices]}


def test_schema_errors():
    bad = malformed_kraus_dicts()
    for obj in bad:
        with pytest.raises(SchemaError):
            kraus_from_dict(obj)
    # np.array upcasts a boolean among numbers, and an all-boolean array is
    # of dtype bool
    with pytest.raises(SchemaError, match="got a boolean"):
        kraus_from_dict(bad[-4])
    with pytest.raises(SchemaError, match="got dtype bool"):
        kraus_from_dict(bad[-3])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_entries_are_schema_errors(value):
    obj = kraus_dict(identity_kraus(2))
    obj["kraus"][0][0][0][1] = value
    with pytest.raises(SchemaError, match="finite"):
        kraus_from_dict(obj)


def test_parse_is_bit_exact_for_integer_and_float_pairs():
    obj = {"d": 2, "K": 1, "kraus": [[[[1, 0], [0.5, -0.25]], [[-0.0, 3], [2, 1e-300]]]]}
    ks = kraus_from_dict(obj)
    expected = np.array([[[1 + 0j, complex(0.5, -0.25)], [complex(-0.0, 3), complex(2, 1e-300)]]])
    assert ks.matrices.shape == (1, 2, 2)
    assert ks.matrices.tobytes() == expected.tobytes()
