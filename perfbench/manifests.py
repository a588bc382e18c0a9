"""Schema-v1 manifests for the manifest-read workload, made from the seed.

The bytes depend only on the seed, this file and numpy, never on gcec, so a
parent commit and its change read identical inputs.  Irrep tables are
written out here for the same reason.  Every stored Kraus set is trace
preserving by construction and its rank-test outcome is known:

- ``z4-d3``: the full Z4 d=3 sweep (1600 records).  Every instance whose
  covariance constraints admit a permutation unitary stores 8 such
  unitaries with random phases (K = 1, genuinely covariant).
- ``su2-d4``: SU2 d=4 records with Omega of dimension 1..6, so K <= d and
  K > d sets are mixed; 11 channel_found records per Omega, 5 sets each.
  Sets are Haar-like random isometries (products span min(K^2, d^2)
  dimensions) or random diagonal sets (products span min(K^2, d)
  dimensions).  They are not covariant; the read path does not check
  covariance.
- ``d5-d4``: all 784 D5 d=4 records with K <= 2; 60 channel_found records
  per Omega, 3 sets each, made the same way.

The stored ``covariance`` residual is 0.0 throughout, since the read path
only renders it; ``tp`` and ``rank_sigma_min`` are computed from the sets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from oracle import rep_table

TOLERANCES = {"kernel": 1e-10, "rank": 1e-8, "tp": 1e-10}
OPTIONS = {"n_starts": 64, "nonunitary_only": False, "reps": None, "time_budget": 10.0}

# (index, dim, label) in catalog order; the labels are the schema-v1 texts.
Z4_IRREPS = [(k, 1, f"q{k}") for k in range(4)]
SU2_IRREPS = [(n - 1, n, str(n)) for n in range(1, 7)]
D5_IRREPS = [(0, 1, "1"), (1, 1, "1'"), (2, 2, "2_1"), (3, 2, "2_2")]


@dataclass
class StoredSet:
    """One stored Kraus set and its rank-test outcome by construction."""

    matrices: np.ndarray  # (K, d, d)
    rank: int
    classification: str


@dataclass
class StoredRecord:
    d1_label: str
    d1_parts: tuple[int, ...]
    d2_label: str
    d2_parts: tuple[int, ...]
    omega_index: int
    n_params: int
    status: str
    classification: str
    samples: list[StoredSet] = field(default_factory=list)


@dataclass
class StoredManifest:
    name: str
    group: str
    kind: str
    d: int
    records: list[StoredRecord]
    data: bytes = b""


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _expected_class(K: int, d: int, rank: int) -> str:
    if K == 1:
        return "unitary"
    return "extreme" if K <= d and rank == K * K else "quasi_extreme"


def _isometry(rng, K: int, d: int) -> StoredSet:
    g = rng.standard_normal((K * d, d)) + 1j * rng.standard_normal((K * d, d))
    q, _ = np.linalg.qr(g)
    mats = q.reshape(K, d, d)
    rank = min(K * K, d * d)
    return StoredSet(mats, rank, _expected_class(K, d, rank))


def _diagonal(rng, K: int, d: int) -> StoredSet:
    g = rng.standard_normal((K, d)) + 1j * rng.standard_normal((K, d))
    g /= np.linalg.norm(g, axis=0)
    mats = np.zeros((K, d, d), dtype=complex)
    mats[:, np.arange(d), np.arange(d)] = g
    rank = 1 if K == 1 else min(K * K, d)
    return StoredSet(mats, rank, _expected_class(K, d, rank))


def _product_sigma_min(mats: np.ndarray) -> float:
    prods = np.einsum("kji,ljm->klim", mats.conj(), mats).reshape(len(mats) ** 2, -1)
    return float(np.linalg.svd(prods, compute_uv=False)[-1])


def _tp_residual(mats: np.ndarray) -> float:
    d = mats.shape[1]
    return float(np.linalg.norm(np.einsum("kji,kjl->il", mats.conj(), mats) - np.eye(d)))


def _z4_records(rng, d: int) -> list[StoredRecord]:
    reps = rep_table(Z4_IRREPS, d)
    perms = list(_permutations(d))
    records = []
    for w in range(4):
        for t1, a in reps.items():
            for t2, b in reps.items():
                # D2(r)^dag A D1(r) = i^w A keeps entry (i, j) iff a_j - b_i = w mod 4
                allowed = np.array([[(a[j] - b[i] - w) % 4 == 0 for j in range(d)] for i in range(d)])
                n_params = int(allowed.sum())
                rec = StoredRecord(t1, a, t2, b, w, n_params, "no_cp_map", "not_applicable")
                fits = [p for p in perms if all(allowed[i, p[i]] for i in range(d))]
                if n_params and not fits:
                    rec.status = "no_tp_solution"
                elif fits:
                    rec.status, rec.classification = "channel_found", "unitary"
                    for _ in range(8):
                        p = fits[int(rng.integers(len(fits)))]
                        mats = np.zeros((1, d, d), dtype=complex)
                        mats[0, np.arange(d), list(p)] = np.exp(2j * np.pi * rng.random(d))
                        rec.samples.append(StoredSet(mats, 1, "unitary"))
                records.append(rec)
    return records


def _permutations(n: int):
    if n == 0:
        yield ()
        return
    for p in _permutations(n - 1):
        for pos in range(n):
            yield p[:pos] + (n - 1,) + p[pos:]


def _random_records(rng, irreps, omega_dims, d: int, found_per_omega: int, samples: int):
    """Records with random sets.  Each Omega gets the same number of
    channel_found records and each of those the same number of samples, so
    the work in a pass does not depend on the seed."""
    reps = rep_table([ir for ir in irreps if ir[1] <= d], d)
    pairs = [(t1, a, t2, b) for t1, a in reps.items() for t2, b in reps.items()]
    n_diagonal = round(0.3 * samples)
    records = []
    for om_index, K, _ in (ir for ir in irreps if ir[1] in omega_dims):
        found = set(rng.choice(len(pairs), size=found_per_omega, replace=False).tolist())
        for i, (t1, a, t2, b) in enumerate(pairs):
            rec = StoredRecord(t1, a, t2, b, om_index, 0, "no_cp_map", "not_applicable")
            if i in found:
                rec.n_params = int(rng.integers(1, 2 * K + 1))
                diagonal = rng.permutation([True] * n_diagonal + [False] * (samples - n_diagonal))
                rec.samples = [(_diagonal if diag else _isometry)(rng, K, d) for diag in diagonal]
                rec.status = "channel_found"
                classes = {s.classification for s in rec.samples}
                rec.classification = "unitary" if K == 1 else (
                    "extreme" if classes == {"extreme"} else "quasi_extreme"
                )
            else:
                rec.n_params = int(rng.integers(0, 2 * K + 1))
                rec.status = "no_tp_solution" if rec.n_params else "no_cp_map"
            records.append(rec)
    return records


def _encode(m: StoredManifest, seed: int, omega_labels: dict[int, str]) -> bytes:
    recs = []
    for r in m.records:
        residuals = {}
        if r.samples:
            residuals = {
                "covariance": 0.0,
                "rank_sigma_min": min(_product_sigma_min(s.matrices) for s in r.samples),
                "tp": max(_tp_residual(s.matrices) for s in r.samples),
            }
        recs.append(
            {
                "classification": r.classification,
                "d": m.d,
                "d1_label": r.d1_label,
                "d2_label": r.d2_label,
                "error": None,
                "group": m.group,
                "kraus_samples": [
                    {"K": len(s.matrices), "d": m.d, "kraus": [_matrix_json(a) for a in s.matrices]}
                    for s in r.samples
                ],
                "moduli_constraints": [],
                "n_params": r.n_params,
                "omega_index": r.omega_index,
                "omega_label": omega_labels[r.omega_index],
                "residuals": residuals,
                "status": r.status,
            }
        )
    obj = {
        "count_found": sum(r.status == "channel_found" for r in m.records),
        "d": m.d,
        "group": m.group,
        "kind": m.kind,
        "kraus_schema_version": 1,
        "options": OPTIONS,
        "records": recs,
        "schema_version": 1,
        "seed": seed,
        "tolerances": TOLERANCES,
        "total_instances": len(m.records),
    }
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def make_inputs(seed: int) -> list[StoredManifest]:
    """The manifest-read input set for ``seed``, bytes included."""
    out = []
    rng = np.random.default_rng([seed, 0])
    m = StoredManifest("z4-d3", "Z4", "discrete", 3, _z4_records(rng, 3))
    m.data = _encode(m, seed, {i: lab for i, _, lab in Z4_IRREPS})
    out.append(m)
    rng = np.random.default_rng([seed, 1])
    m = StoredManifest("su2-d4", "SU2", "lie", 4, _random_records(rng, SU2_IRREPS, range(1, 7), 4, 11, 5))
    m.data = _encode(m, seed, {i: lab for i, _, lab in SU2_IRREPS})
    out.append(m)
    rng = np.random.default_rng([seed, 2])
    m = StoredManifest("d5-d4", "D5", "discrete", 4, _random_records(rng, D5_IRREPS, (1, 2), 4, 60, 3))
    m.data = _encode(m, seed, {i: lab for i, _, lab in D5_IRREPS})
    out.append(m)
    return out
