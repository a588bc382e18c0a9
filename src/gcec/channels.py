"""Channel utilities: Kraus sets, Choi matrices, validation, transforms.

Conventions: operators act on a d-dimensional system; the Choi matrix is
C = (1/d) sum_k |a_k><a_k| with |a_k> the row-major vectorization of the
k-th Kraus operator, so C is trace-one PSD for a trace-preserving set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NotUnitary, SchemaError

KRAUS_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class KrausSet:
    """K complex d x d Kraus operators."""

    matrices: tuple[np.ndarray, ...]

    @property
    def K(self) -> int:
        return len(self.matrices)

    @property
    def d(self) -> int:
        return self.matrices[0].shape[0]

    @staticmethod
    def from_matrices(matrices) -> "KrausSet":
        mats = tuple(np.asarray(m, dtype=complex) for m in matrices)
        if not mats:
            raise DimMismatch("a Kraus set needs at least one operator")
        d = mats[0].shape[0]
        for m in mats:
            if m.shape != (d, d):
                raise DimMismatch(f"Kraus operators must all be {d}x{d}, got {m.shape}")
        return KrausSet(matrices=mats)

    def tp_residual(self) -> float:
        xi = sum(m.conj().T @ m for m in self.matrices)
        return float(np.linalg.norm(xi - np.eye(self.d)))


@dataclass(frozen=True)
class ChoiMatrix:
    matrix: np.ndarray
    d: int


def choi(kraus: KrausSet) -> ChoiMatrix:
    """Choi matrix (1/d) sum_k vec(A_k) vec(A_k)^dag with row-major vec."""
    d = kraus.d
    c = np.zeros((d * d, d * d), dtype=complex)
    for m in kraus.matrices:
        v = m.reshape(-1)
        c += np.outer(v, v.conj())
    return ChoiMatrix(matrix=c / d, d=d)


def conjugate(kraus: KrausSet, U: np.ndarray, V: np.ndarray, tol: float = 1e-10) -> KrausSet:
    """Unitary transport {A_k} -> {U A_k V} (channel-equivalence move)."""
    for name, mat in (("U", U), ("V", V)):
        mat = np.asarray(mat)
        if mat.shape != (kraus.d, kraus.d):
            raise DimMismatch(f"{name} must be {kraus.d}x{kraus.d}")
        if np.linalg.norm(mat.conj().T @ mat - np.eye(kraus.d)) > tol:
            raise NotUnitary(f"{name} is not unitary within {tol}")
    return KrausSet.from_matrices([U @ m @ V for m in kraus.matrices])


# ---------------------------------------------------------------------------
# JSON serialization: complex numbers as [re, im] pairs throughout
# ---------------------------------------------------------------------------


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def matrix_from_json(obj, shape: tuple[int, int] | None = None) -> np.ndarray:
    try:
        m = np.array([[complex(z[0], z[1]) for z in row] for row in obj])
    except (TypeError, IndexError, ValueError) as exc:
        raise SchemaError(f"malformed complex matrix: {exc}") from None
    if shape is not None and m.shape != shape:
        raise SchemaError(f"expected matrix shape {shape}, got {m.shape}")
    return m


def kraus_fields(kraus: KrausSet) -> dict:
    """The JSON fields of a Kraus set, with the operators as one (K, d, d, 2)
    float array of [re, im] pairs (a view of the stacked complex matrices)."""
    mats = np.stack(kraus.matrices).astype(complex, copy=False)
    return {"d": kraus.d, "K": kraus.K, "kraus": mats.view(float).reshape(kraus.K, kraus.d, kraus.d, 2)}


def kraus_to_dict(kraus: KrausSet) -> dict:
    """:func:`kraus_fields` in plain JSON types."""
    fields = kraus_fields(kraus)
    fields["kraus"] = fields["kraus"].tolist()
    return fields


def kraus_from_dict(obj) -> KrausSet:
    if not isinstance(obj, dict):
        raise SchemaError(f"expected a Kraus-set object, got {type(obj).__name__}")
    for key in ("d", "K", "kraus"):
        if key not in obj:
            raise SchemaError(f"Kraus-set object missing key {key!r}")
    d, K = obj["d"], obj["K"]
    if not (isinstance(d, int) and isinstance(K, int) and d >= 1 and K >= 1):
        raise SchemaError("Kraus-set 'd' and 'K' must be positive integers")
    if not isinstance(obj["kraus"], list) or len(obj["kraus"]) != K:
        raise SchemaError(f"expected {K} Kraus matrices")
    mats = [matrix_from_json(m, shape=(d, d)) for m in obj["kraus"]]
    return KrausSet.from_matrices(mats)
