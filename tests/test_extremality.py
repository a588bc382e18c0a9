"""Extremality rank test."""

import dataclasses

import numpy as np
import pytest

from gcec.channels import KrausSet
from gcec.errors import NotTracePreserving
from gcec.extremality import TOL_TP
from gcec.extremality import test_extreme as rank_test

from fixtures import (
    a4_qutrit_triple,
    check_extreme,
    d5_qutrit_pair,
    depolarizing_kraus,
    identity_kraus,
    kraus_set,
    s3_qutrit_family,
    so3_d5_family,
    so3_qutrit_family,
    su2_flip_family,
)
from oracles import product_gram_rank, random_unitary

S3_GENERIC = s3_qutrit_family(0.6, 0.5**0.5, 0.32**0.5)
S3_LOCUS = s3_qutrit_family(0.5**0.5, 0.5**0.5, 0.5)

EXTREME_FIXTURES = [
    ("identity", identity_kraus(3)),
    ("s3-generic", S3_GENERIC),
    ("a4", a4_qutrit_triple()),
    ("d5", d5_qutrit_pair()),
    ("so3-d3", so3_qutrit_family(0.5**0.5)),
    ("so3-d5", so3_d5_family((2.0 / 7.0) ** 0.5)),
    ("su2-d2", su2_flip_family(2)),
    ("su2-d3", su2_flip_family(3)),
    ("su2-d4", su2_flip_family(4)),
]


def test_product_stack_shape():
    # K = 2 products on d = 3: a 9 x 4 product stack, so min(9, 4) singular values
    test = rank_test(kraus_set(S3_GENERIC).matrices[None])
    assert test.singular_values.shape == (1, 4)


@pytest.mark.parametrize("label,mats", EXTREME_FIXTURES, ids=lambda v: v if isinstance(v, str) else "")
def test_fixture_channels_are_extreme(label, mats):
    ks = kraus_set(mats)
    test = check_extreme(ks)
    assert test.extreme[0]
    assert test.rank[0] == ks.K**2
    assert test.rank[0] == product_gram_rank(mats)


def test_s3_locus_is_quasi_extreme():
    ks = kraus_set(S3_LOCUS)
    test = check_extreme(ks)
    assert not test.extreme[0]
    assert test.rank[0] == 3 and ks.K**2 == 4


def test_rank_bounded_by_dimensions():
    for _, mats in EXTREME_FIXTURES:
        ks = kraus_set(mats)
        assert check_extreme(ks).rank[0] <= min(ks.d**2, ks.K**2)


def test_verdict_invariant_under_unitary_conjugation():
    rng = np.random.default_rng(41)
    for mats, expect in [(a4_qutrit_triple(), True), (S3_LOCUS, False)]:
        ks = kraus_set(mats)
        base = check_extreme(ks)
        assert base.extreme[0] == expect
        for _ in range(20):
            u, v = random_unitary(rng, 3), random_unitary(rng, 3)
            moved = KrausSet(u @ ks.matrices @ v.conj().T)
            test = check_extreme(moved)
            assert test.extreme[0] == base.extreme[0]
            assert test.rank[0] == base.rank[0]


def test_verdict_invariant_under_kraus_mixing():
    rng = np.random.default_rng(42)
    for mats, expect in [(S3_GENERIC, True), (S3_LOCUS, False)]:
        base = check_extreme(kraus_set(mats))
        assert base.extreme[0] == expect
        for _ in range(20):
            w = random_unitary(rng, len(mats))
            mixed = [
                sum(w[j, k] * mats[k] for k in range(len(mats)))
                for j in range(len(mats))
            ]
            test = check_extreme(kraus_set(mixed))
            assert test.extreme[0] == base.extreme[0]
            assert test.rank[0] == base.rank[0]


def test_verdict_stable_under_tiny_perturbation():
    rng = np.random.default_rng(43)
    for mats in [S3_GENERIC, S3_LOCUS]:
        base = check_extreme(kraus_set(mats))
        noise = [
            1e-12 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            for _ in mats
        ]
        bumped = kraus_set([m + n for m, n in zip(mats, noise)])
        test = check_extreme(bumped)
        assert test.extreme[0] == base.extreme[0]
        assert test.rank[0] == base.rank[0]


def test_too_many_kraus_reported_not_raised():
    ks = kraus_set(depolarizing_kraus(2))
    test = check_extreme(ks)
    assert not test.extreme[0]
    assert test.rank[0] <= 4 and ks.K**2 == 16


def test_non_tp_input_rejected():
    with pytest.raises(NotTracePreserving):
        check_extreme(kraus_set([0.5 * np.eye(2)]))



def test_check_channels_stops_at_the_first_non_channel_of_its_slice():
    # Sets 1 and 2 scale a unitary to TP residuals sqrt(2) (s^2 - 1) of 3 and
    # 5 times TOL_TP; set 3 gets a NaN residual.
    scales = np.sqrt(1 + np.array([0.0, 3.0, 5.0, 0.0]) * TOL_TP / np.sqrt(2))
    test = rank_test(scales[:, None, None, None] * np.eye(2, dtype=complex)[None, None])
    test = dataclasses.replace(test, tp_residual=np.append(test.tp_residual[:3], np.nan))
    named = {}
    for at in (slice(1, 3), slice(2, 4), slice(3, 4), slice(0, 4)):
        with pytest.raises(NotTracePreserving) as err:
            test.check_channels(at)
        named[at.start, at.stop] = str(err.value)
    first, second = (f"trace-preservation residual {test.tp_residual[i]:.3e} exceeds {TOL_TP:.1e}" for i in (1, 2))
    assert named == {(1, 3): first, (2, 4): second, (3, 4): f"trace-preservation residual nan exceeds {TOL_TP:.1e}",
                     (0, 4): first}
    assert first != second
    test.check_channels(slice(0, 1))
    test.check_channels(0)
