"""Frozen closed-form Kraus families used as golden values, and helpers
for one Kraus set's rank test, for plain JSON values of sets and records,
and for covariance systems of densely rotated representations.

Each builder returns plain lists of ndarrays; all were validated against
independent derivations (covariance residuals and trace preservation at
machine precision) before being frozen here.
"""

from types import SimpleNamespace

import numpy as np

from gcec import kernels
from gcec.channels import KrausSet, kraus_fields
from gcec.extremality import test_extreme
from gcec.pipeline import _manifest_fields, _record_fields
from gcec.reps import InvariantBlock

_SQ2 = np.sqrt(2.0)


def s3_qutrit_family(alpha, beta, gamma):
    """Two-Kraus qutrit family covariant for the 3-element-symmetry catalog
    entry with the 2-dim channel label; trace preserving exactly when
    2|beta|^2 = 1 and |alpha|^2 + 2|gamma|^2 = 1."""
    a1 = np.array(
        [[0, alpha, 0], [beta, gamma, 0], [0, 0, -gamma]], dtype=complex
    )
    a2 = np.array(
        [[0, 0, alpha], [0, 0, -gamma], [beta, -gamma, 0]], dtype=complex
    )
    return [a1, a2]


def d5_qutrit_pair():
    """The pentagon-symmetry qutrit channel; equals the 3-element-symmetry
    family at (alpha, beta, gamma) = (1, 1/sqrt2, 0)."""
    return s3_qutrit_family(1.0, 1.0 / _SQ2, 0.0)


def a4_qutrit_triple():
    """Three-Kraus qutrit set covariant for the tetrahedral 3-dim label
    (sign-corrected so it lies in the covariance kernel as published
    generator matrices demand)."""
    s = 1.0 / _SQ2
    a1 = s * np.diag([0.0, 1.0, -1.0]).astype(complex)
    a2 = s * np.array([[0, -1, 0], [0, 0, 0], [-1, 0, 0]], dtype=complex)
    a3 = s * np.array([[0, 0, 1], [1, 0, 0], [0, 0, 0]], dtype=complex)
    return [a1, a2, a3]


def a4_qutrit_triple_alt_gauge():
    """Same channel written in the alternative gauge that circulates in
    print: per-Kraus phases combined with a diagonal-basis change."""
    w = np.exp(2j * np.pi / 3)
    s = 1.0 / _SQ2
    a1 = s * np.diag([0.0, 1.0, -1.0]).astype(complex)
    a2 = s * np.array([[0, -1, 0], [0, 0, 0], [w, 0, 0]], dtype=complex)
    a3 = s * np.array([[0, 0, 1], [-w, 0, 0], [0, 0, 0]], dtype=complex)
    return [a1, a2, a3]


def a4_gauge_bridge():
    """Diagonal unitary D with D A_k D^dag matching the alt gauge up to
    per-Kraus unit phases (phases are channel-irrelevant)."""
    return np.diag([1.0, np.exp(1.5j * np.pi), np.exp(1j * np.pi / 6)])


def so3_qutrit_family(a):
    """Rank-1 spherical-tensor triple on d=3; trace preserving at
    |a|^2 = 1/2."""
    a1 = np.array([[0, -a, 0], [0, 0, -a], [0, 0, 0]], dtype=complex)
    a0 = np.diag([a, 0.0, -a]).astype(complex)
    return [a1, a0, -a1.T]


def so3_d5_family(a):
    """Rank-2 spherical-tensor five-tuple on d=5; trace preserving at
    |a|^2 = 2/7."""
    s6 = np.sqrt(6.0)
    f2 = np.zeros((5, 5), dtype=complex)
    f2[0, 2], f2[1, 3], f2[2, 4] = 2.0, s6, 2.0
    f1 = np.zeros((5, 5), dtype=complex)
    f1[0, 1], f1[1, 2], f1[2, 3], f1[3, 4] = -s6, -1.0, 1.0, s6
    f0 = np.diag([2.0, -1.0, -2.0, -1.0, 2.0]).astype(complex)
    mats = [f2, f1, f0, -f1.T, f2.T]
    return [(a / 2.0) * m for m in mats]


def su2_flip_family(d):
    """(d-1)-Kraus family on (d-1)-irrep + trivial slot (trivial first),
    exactly trace preserving; reduces to the bit-flip unitary at d=2."""
    j = (d - 2) / 2.0
    x = 1.0 / np.sqrt(d - 1)
    mats = []
    for i in range(d - 1):
        m = j - i
        a = np.zeros((d, d), dtype=complex)
        a[1 + i, 0] = x
        a[0, 1 + int(round(j + m))] = (-1.0) ** int(round(j - m))
        mats.append(a)
    return mats


def identity_kraus(d):
    return [np.eye(d, dtype=complex)]


def depolarizing_kraus(d):
    """Completely depolarizing channel: d^2 scaled matrix units."""
    mats = []
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0 / np.sqrt(d)
            mats.append(e)
    return mats


def random_full_rank_channel(rng, d):
    """d^2 Kraus operators from a Haar-ish random isometry; Choi rank d^2."""
    x = rng.standard_normal((d * d * d, d)) + 1j * rng.standard_normal((d * d * d, d))
    q, _ = np.linalg.qr(x)
    return [q[k * d : (k + 1) * d, :] for k in range(d * d)]


def plain(obj):
    """``obj`` with every ndarray and tuple as nested lists: plain JSON values."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: plain(value) for key, value in obj.items()}
    return [plain(item) for item in obj] if isinstance(obj, (list, tuple)) else obj


def kraus_set(mats):
    return KrausSet(np.asarray(mats, dtype=complex))


def check_extreme(ks):
    """The rank test of one Kraus set (a stack of one), which must be a channel."""
    test = test_extreme(ks.matrices[None])
    test.check_channels(0)
    return test


def kraus_dict(mats):
    return plain(kraus_fields(kraus_set(mats)))


def record_dict(record, manifest):
    """The JSON fields of ``record``, a record of ``manifest``."""
    return plain(_record_fields(record, manifest.group, manifest.d))


def manifest_dict(manifest):
    """``json.dumps(manifest_dict(m), sort_keys=True, separators=(",", ":")) + "\\n"`` is
    ``manifest_to_json``'s reference."""
    return plain(_manifest_fields(manifest))


def rotated(rep, u):
    """``rep`` conjugated by the unitary ``u``, as its dimension and
    generator matrices: all that the covariance residuals read."""
    return SimpleNamespace(dim=rep.dim, generator_matrices=tuple(u @ g @ u.conj().T for g in rep.generator_matrices))


def rotated_system(kind, D1, D2, omega):
    """The covariance system of D1 and D2 (say, :func:`rotated` ones), each
    handed to the kernel layer whole, as one invariant part."""
    rows, cols = kernels.rows_cols(kind, D1, D2)
    parts = ((InvariantBlock.on(np.arange(rep.dim), rep.generator_matrices),) for rep in (rows, cols))
    return kernels._system(kind, *parts, omega.generator_matrices)
