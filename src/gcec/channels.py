"""Channel utilities: Kraus sets, Choi matrices, validation, JSON encoding.

Conventions: operators act on a d-dimensional system; the Choi matrix is
C = (1/d) sum_k |a_k><a_k| with |a_k> the row-major vectorization of the
k-th Kraus operator, so C is trace-one PSD for a trace-preserving set.

Stacks.  The checks take a stack of Kraus sets of one shape, an array of
shape (S, K, d, d), and evaluate every set in a few batched numpy calls
(batched matmul, one LAPACK call per stack); a single :class:`KrausSet` is
the S = 1 case.  Each set's values are those of a loop over the sets.
:func:`tp_residuals` is the package's one TP residual: the rank test,
sweep records and ``classify`` all read it.  ``classify`` reads the least
Choi eigenvalue off the smaller of the d^2 x d^2 :func:`choi` matrix and
the K x K Gram matrix of the vectorized operators, divided by d: they
share their nonzero eigenvalues, and when K < d^2 the Choi matrix has
d^2 - K zero eigenvalues besides.  The rank count of the Kraus products
lives with the rank test, in :mod:`gcec.extremality`.

JSON.  Complex numbers are [re, im] pairs, written by one encoder,
:func:`matrix_to_json` (manifests and ``gcec catalog``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import SchemaError

KRAUS_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class KrausSet:
    """K complex d x d Kraus operators, stored as one (K, d, d) array."""

    matrices: np.ndarray

    @property
    def K(self) -> int:
        return self.matrices.shape[0]

    @property
    def d(self) -> int:
        return self.matrices.shape[1]


def tp_residuals(stack: np.ndarray) -> np.ndarray:
    """||sum_k A_k^dag A_k - I||_F of each set in an (S, K, d, d) stack.

    The K products are added in order and the norm is the real and
    imaginary dot products, as ``np.linalg.norm`` of one d x d matrix
    computes it, so each value is that of the set alone bit for bit."""
    S, _, d, _ = stack.shape
    xi = sum((stack.conj().swapaxes(-1, -2) @ stack).swapaxes(0, 1))
    defect = (xi - np.eye(d)).reshape(S, 1, d * d)
    re, im = defect.real, defect.imag
    return np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)).reshape(S)


def choi(stack: np.ndarray) -> np.ndarray:
    """Choi matrices (1/d) sum_k vec(A_k) vec(A_k)^dag, row-major vec, of an
    (S, K, d, d) stack: shape (S, d^2, d^2)."""
    S, K, d, _ = stack.shape
    vecs = stack.reshape(S, K, d * d)
    return (vecs.swapaxes(-1, -2) @ vecs.conj()) / d


# ---------------------------------------------------------------------------
# JSON serialization: complex numbers as [re, im] pairs throughout
# ---------------------------------------------------------------------------


def matrix_to_json(m: np.ndarray) -> np.ndarray:
    """The [re, im] pairs of a complex array: its float view, shape ``(..., 2)``."""
    m = np.ascontiguousarray(m, dtype=complex)
    return m.view(float).reshape(*m.shape, 2)


def kraus_fields(kraus: KrausSet) -> dict:
    """The JSON fields of a Kraus set, its operators as one (K, d, d, 2) array."""
    return {"d": kraus.d, "K": kraus.K, "kraus": matrix_to_json(kraus.matrices)}


def kraus_from_dict(obj) -> KrausSet:
    """Parse a Kraus-set object: positive integers ``d`` and ``K`` and
    ``kraus``, K matrices of d x d finite [re, im] pairs, converted in one
    ``np.array`` call.  Anything else raises ``SchemaError``."""
    if not isinstance(obj, dict):
        raise SchemaError(f"expected a Kraus-set object, got {type(obj).__name__}")
    for key in ("d", "K", "kraus"):
        if key not in obj:
            raise SchemaError(f"Kraus-set object missing key {key!r}")
    d, K = obj["d"], obj["K"]
    if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in (d, K)):
        raise SchemaError("Kraus-set 'd' and 'K' must be positive integers")
    if not isinstance(obj["kraus"], list) or len(obj["kraus"]) != K:
        raise SchemaError(f"expected {K} Kraus matrices")
    try:
        pairs = np.array(obj["kraus"])
    except ValueError as exc:  # ragged nesting
        raise SchemaError(f"malformed complex matrices: {exc}") from None
    if pairs.dtype.kind not in "iuf":
        raise SchemaError(f"Kraus entries must be real numbers, got dtype {pairs.dtype}")
    if pairs.shape != (K, d, d, 2):
        raise SchemaError(f"expected Kraus array shape {(K, d, d, 2)}, got {pairs.shape}")
    # np.array upcasts a JSON true or false among numbers to 1 or 0
    if any(type(re) is bool or type(im) is bool for re, im in chain.from_iterable(chain.from_iterable(obj["kraus"]))):
        raise SchemaError("Kraus entries must be real numbers, got a boolean")
    if not np.isfinite(pairs).all():
        raise SchemaError("Kraus entries must be finite")
    return KrausSet(matrices=pairs.astype(float).view(complex)[..., 0])
