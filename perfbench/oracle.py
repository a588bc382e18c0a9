"""Independent checks on the manifests gcec writes.

Nothing here calls the kernels, the TP solver, the rank test or the
persistence code.  Parameter counts come from representation theory:
character inner products for finite groups, the Clebsch-Gordan rule for
SO3/SU2.  Every emitted sample is re-checked in plain numpy for covariance,
trace preservation and complete positivity.  The only package calls are the
catalog (`props`, the group data itself) and `character_table`.
"""

from __future__ import annotations

import numpy as np

COV_TOL = 1e-8  # absolute Frobenius defect of one covariance relation
TP_TOL = 1e-9  # ||sum_k A_k^dag A_k - 1||_F; the program itself uses 1e-10
CP_TOL = -1e-10  # smallest admissible Choi eigenvalue


def rep_table(irreps, d: int) -> dict[str, tuple[int, ...]]:
    """Every multiset of irreps with dimensions summing to d, as
    {display text: index tuple}, parts in canonical (dim, index) order.

    ``irreps`` is a sequence of (index, dim, label) triples.
    """
    ordered = sorted(irreps, key=lambda ir: (ir[1], ir[0]))
    out: dict[str, tuple[int, ...]] = {}

    def extend(start, remaining, acc):
        if remaining == 0:
            out["+".join(ir[2] for ir in acc)] = tuple(ir[0] for ir in acc)
            return
        for pos in range(start, len(ordered)):
            if ordered[pos][1] <= remaining:
                extend(pos, remaining - ordered[pos][1], acc + [ordered[pos]])

    extend(0, d, [])
    return out


def cg_contains(a: int, b: int, c: int) -> bool:
    """Whether the irrep of dimension c occurs in a (x) b for SU2/SO3."""
    return abs(a - b) + 1 <= c <= a + b - 1 and (a + b + c) % 2 == 1


def _block_diag(blocks) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    at = 0
    for b in blocks:
        k = b.shape[0]
        out[at : at + k, at : at + k] = b
        at += k
    return out


class SweepOracle:
    """Expected instances, parameter counts and sample checks for one sweep."""

    def __init__(self, group: str, kind: str, d: int, nonunitary_only: bool):
        from gcec.groups import character_table, props

        spec = props(group, kind, d).group
        self.group, self.kind, self.d = group, kind, d
        self.irreps = {ir.index: ir for ir in spec.irreps}
        self.reps = rep_table([(ir.index, ir.dim, ir.label) for ir in spec.irreps], d)
        self.omegas = [
            ir.index
            for ir in spec.irreps
            if ir.dim <= d and (ir.dim >= 2 or not nonunitary_only)
        ]
        if kind == "discrete":
            table = np.asarray(character_table(spec))
            row = {ir.index: i for i, ir in enumerate(spec.irreps)}
            chi = {t: sum(table[row[p]] for p in parts) for t, parts in self.reps.items()}
            order = table.shape[1]
        self.expected: dict[tuple[str, str, int], int] = {}
        for om in self.omegas:
            for t1, p1 in self.reps.items():
                for t2, p2 in self.reps.items():
                    if kind == "discrete":
                        # (1/|G|) sum_g chi_D2(g) conj(chi_D1(g)) chi_Omega(g)
                        val = np.sum(chi[t2] * chi[t1].conj() * table[row[om]]) / order
                        n = int(round(val.real))
                        if abs(val - n) > 1e-6:
                            raise ValueError(f"non-integral character product {val}")
                    else:
                        # sum over blocks i in D1, j in D2 of [Omega in rho_i (x) rho_j]
                        n = sum(
                            cg_contains(self.irreps[i].dim, self.irreps[j].dim, self.irreps[om].dim)
                            for i in p1
                            for j in p2
                        )
                    self.expected[(t1, t2, om)] = n
        self._gens: dict[str, tuple[np.ndarray, ...]] = {}

    def generators(self, text: str) -> tuple[np.ndarray, ...]:
        if text not in self._gens:
            blocks = [self.irreps[p] for p in self.reps[text]]
            self._gens[text] = tuple(
                _block_diag([ir.generator_matrices[g] for ir in blocks])
                for g in range(len(blocks[0].generator_matrices))
            )
        return self._gens[text]

    def sample_defects(self, rec: dict, sample: dict) -> list[str]:
        """Reasons a stored sample is not a covariant, TP, CP Kraus set."""
        d, K = self.d, self.irreps[rec["omega_index"]].dim
        mats = np.array(
            [[[complex(re, im) for re, im in row] for row in m] for m in sample["kraus"]]
        )
        if mats.shape != (K, d, d) or sample["K"] != K or sample["d"] != d:
            return [f"sample shape {mats.shape}, expected {(K, d, d)}"]
        out = []
        gens1 = self.generators(rec["d1_label"])
        gens2 = self.generators(rec["d2_label"])
        gens_om = self.irreps[rec["omega_index"]].generator_matrices
        worst = 0.0
        for t1, t2, om in zip(gens1, gens2, gens_om):
            if self.kind == "discrete":
                # D2(g)^dag A_k D1(g) = sum_l Omega_kl(g) A_l
                lhs = np.einsum("ij,kjl,lm->kim", t2.conj().T, mats, t1)
                rhs = np.einsum("kl,lij->kij", om, mats)
            else:
                # D1(T) A_k - A_k D2(T) = sum_l Omega(T)_lk A_l
                lhs = np.einsum("ij,kjl->kil", t1, mats) - np.einsum("kij,jl->kil", mats, t2)
                rhs = np.einsum("lk,lij->kij", om, mats)
            worst = max(worst, float(np.max(np.linalg.norm(lhs - rhs, axis=(1, 2)))))
        if worst > COV_TOL:
            out.append(f"covariance defect {worst:.2e}")
        tp = float(np.linalg.norm(np.einsum("kji,kjl->il", mats.conj(), mats) - np.eye(d)))
        if tp > TP_TOL:
            out.append(f"TP residual {tp:.2e}")
        vecs = mats.reshape(K, d * d)
        cp = float(np.linalg.eigvalsh(vecs.T @ vecs.conj() / d)[0])
        if cp < CP_TOL:
            out.append(f"Choi min eigenvalue {cp:.2e}")
        return out
