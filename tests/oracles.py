"""Independent oracles used to freeze expected values.

Everything here is deliberately naive (brute force, alternative formulas)
so it shares no code path with the package under test.
"""

import numpy as np


def count_partitions(total, allowed_parts):
    """Number of multisets from ``allowed_parts`` summing to ``total``,
    by direct recursion over non-increasing choices."""
    parts = sorted(set(allowed_parts), reverse=True)

    def rec(remaining, max_part):
        if remaining == 0:
            return 1
        count = 0
        for p in parts:
            if p <= max_part and p <= remaining:
                count += rec(remaining - p, p)
        return count

    return rec(total, max(parts) if parts else 0)


def partitions_all(n):
    """p(n): partitions of n into arbitrary positive parts."""
    return count_partitions(n, range(1, n + 1))


def partitions_odd(n):
    """Partitions of n into odd parts."""
    return count_partitions(n, range(1, n + 1, 2))


def product_gram_rank(matrices, tol=1e-8):
    """Rank of span{A_k^dag A_l} via the K^2 x K^2 Gram of the products
    (no vectorized stacking, unlike the implementation under test)."""
    prods = [a.conj().T @ b for a in matrices for b in matrices]
    m = len(prods)
    G = np.empty((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            G[i, j] = np.trace(prods[i].conj().T @ prods[j])
    svals = np.linalg.svd(G, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    # Gram eigenvalues are squared singular values of the span map, so the
    # threshold is squared too.
    return int(np.sum(svals > (tol * np.sqrt(svals[0])) ** 2))


def random_unitary(rng, d):
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(x)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def character_n_params(table, rows1, rows2, omega_row):
    """Covariant-operator count for a finite group from characters:
    (1/|G|) sum_g chi_D2(g) conj(chi_D1(g)) chi_Omega(g), where D1 and D2 are
    given as lists of irrep rows of ``table`` (shape (irreps, |G|))."""
    chi1 = sum(table[r] for r in rows1)
    chi2 = sum(table[r] for r in rows2)
    val = np.sum(chi2 * np.conj(chi1) * table[omega_row]) / table.shape[1]
    count = int(round(val.real))
    assert abs(val - count) <= 1e-6, f"non-integral character product {val}"
    return count


def clebsch_gordan_n_params(dims1, dims2, omega_dim):
    """Covariant-operator count for SO3/SU2: the number of block pairs
    (rho_i in D1, rho_j in D2) whose tensor product contains Omega.  The
    irrep of dimension c occurs in a (x) b iff |a - b| < c < a + b and
    a + b + c is odd."""
    return sum(
        abs(a - b) + 1 <= omega_dim <= a + b - 1 and (a + b + omega_dim) % 2 == 1
        for a in dims1
        for b in dims2
    )


def tp_exists(input_parts, n_alone):
    """Whether a covariant family holds a trace-preserving point, by
    counting.  ``input_parts`` lists the irreps of the representation on
    the columns of each Kraus operator (D1 for finite groups, D2 for
    SO3/SU2), with repeats; ``n_alone(rho)`` is the covariant-operator
    count with ``rho`` alone as that representation.  By Schur's lemma
    Xi(c) = sum_k A_k^dag A_k is (C^dag C / dim rho) (x) 1 on the copies of
    rho, where C has one row per covariant operator out of rho and one
    column per copy, so Xi(c) = 1 is solvable exactly when every irrep of
    multiplicity m has n_alone(rho) >= m."""
    return all(n_alone(rho) >= list(input_parts).count(rho) for rho in set(input_parts))
