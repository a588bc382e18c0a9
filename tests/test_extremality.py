"""Extremality rank test."""

import numpy as np
import pytest

from gcec.channels import KrausSet
from gcec.errors import NotTracePreserving
from gcec.extremality import product_stack

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
    stack = product_stack(kraus_set(S3_GENERIC).matrices[None])
    assert stack.shape == (1, 9, 4)


@pytest.mark.parametrize("label,mats", EXTREME_FIXTURES, ids=lambda v: v if isinstance(v, str) else "")
def test_fixture_channels_are_extreme(label, mats):
    ks = kraus_set(mats)
    verdict = check_extreme(ks)
    assert verdict.is_extreme
    assert verdict.rank == verdict.expected_rank == ks.K**2
    assert verdict.rank == product_gram_rank(mats)


def test_s3_locus_is_quasi_extreme():
    verdict = check_extreme(kraus_set(S3_LOCUS))
    assert not verdict.is_extreme
    assert verdict.rank == 3 and verdict.expected_rank == 4


def test_rank_bounded_by_dimensions():
    for _, mats in EXTREME_FIXTURES:
        ks = kraus_set(mats)
        verdict = check_extreme(ks)
        assert verdict.rank <= min(ks.d**2, ks.K**2)


def test_verdict_invariant_under_unitary_conjugation():
    rng = np.random.default_rng(41)
    for mats, expect in [(a4_qutrit_triple(), True), (S3_LOCUS, False)]:
        ks = kraus_set(mats)
        base = check_extreme(ks)
        assert base.is_extreme == expect
        for _ in range(20):
            u, v = random_unitary(rng, 3), random_unitary(rng, 3)
            moved = KrausSet(u @ ks.matrices @ v.conj().T)
            verdict = check_extreme(moved)
            assert verdict.is_extreme == base.is_extreme
            assert verdict.rank == base.rank


def test_verdict_invariant_under_kraus_mixing():
    rng = np.random.default_rng(42)
    for mats, expect in [(S3_GENERIC, True), (S3_LOCUS, False)]:
        base = check_extreme(kraus_set(mats))
        assert base.is_extreme == expect
        for _ in range(20):
            w = random_unitary(rng, len(mats))
            mixed = [
                sum(w[j, k] * mats[k] for k in range(len(mats)))
                for j in range(len(mats))
            ]
            verdict = check_extreme(kraus_set(mixed))
            assert verdict.is_extreme == base.is_extreme
            assert verdict.rank == base.rank


def test_verdict_stable_under_tiny_perturbation():
    rng = np.random.default_rng(43)
    for mats in [S3_GENERIC, S3_LOCUS]:
        base = check_extreme(kraus_set(mats))
        noise = [
            1e-12 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            for _ in mats
        ]
        bumped = kraus_set([m + n for m, n in zip(mats, noise)])
        verdict = check_extreme(bumped)
        assert verdict.is_extreme == base.is_extreme
        assert verdict.rank == base.rank


def test_too_many_kraus_reported_not_raised():
    verdict = check_extreme(kraus_set(depolarizing_kraus(2)))
    assert not verdict.is_extreme
    assert verdict.rank <= 4 and verdict.expected_rank == 16


def test_non_tp_input_rejected():
    with pytest.raises(NotTracePreserving):
        check_extreme(kraus_set([0.5 * np.eye(2)]))

