"""Label classes of a finite-group sweep, and transport between their members.

Two moves map an instance (D1, D2, Omega) to an equivalent one:

* twist by 1-dimensional characters chi_s, chi_t:
  (D1 chi_s, D2 chi_t, Omega chi_s conj(chi_t)), since
  (D2 chi_t)^dag A (D1 chi_s) = chi_s conj(chi_t) D2^dag A D1;
* conjugation: (conj D1, conj D2, conj Omega), with conj(A_k) as Kraus set.

Both act on labels through irrep permutations read off the character table:
twisting by chi_s sends irrep p to the irrep whose character is chi_p chi_s,
conjugation to the one whose character is conj(chi_p).  Characters are
matched within ``_CHAR_TOL`` (Zn characters carry roundoff, such as Z2's
-1 + 1.2e-16j) and each must match exactly one irrep.  The moves form a
group; each element is an optional conjugation followed by one twist,
written :class:`Move` (s, t, c).  A *class* is an orbit of that group, and
its representative is its least instance in sweep order (Omega index, D1
parts, D2 parts).

Transport.  Write B_k = conj(A_k) when the move conjugates and A_k
otherwise, and M1 = c(D1) chi_s, M2 = c(D2) chi_t and M = c(Omega) chi_s
conj(chi_t) for the moved representations.  For unitaries P, R and Q with
P^dag M1 P = D1', R^dag M2 R = D2' and Q^dag M Q = Omega', the member's
Kraus operators

    A'_j = sum_k conj(Q_kj) R^dag B_k P

satisfy D2'^dag A'_j D1' = sum_l Omega'_jl A'_l (because
M2^dag B_k M1 = sum_l M_kl B_l) and sum_j A'_j^dag A'_j =
P^dag (sum_k B_k^dag B_k) P = 1.  The Kraus products A'_i^dag A'_j are a
unitary recombination of the P^dag B_k^dag B_l P, so the singular values of
the product stack, and with them the rank test, carry over too.  Each of
P, R and Q is a block permutation of one unitary per irrep part
(:func:`gcec.kernels.intertwiner`), placed by the canonical sort of the
moved parts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausSet
from .errors import GcecError
from .groups import GroupSpec, character_table
from .kernels import intertwiner

_CHAR_TOL = 1e-8  # characters are sums of roots of unity; roundoff is ~1e-15


@dataclass(frozen=True)
class Move:
    """Conjugate when ``conj``, then twist D1 by the 1-dim irrep ``s``, D2
    by ``t`` and Omega by ``u``, the irrep whose character is
    chi_s conj(chi_t)."""

    s: int
    t: int
    u: int
    conj: bool


Instance = tuple  # (Omega index, D1 parts, D2 parts): compares in sweep order


class LabelClasses:
    """The classes of one sweep's instances and the transport between them.

    ``tol_kernel`` and ``cache`` go to the intertwiner solves; every
    intertwiner and placement is computed once per object.
    """

    def __init__(self, spec: GroupSpec, tol_kernel: float, cache: dict):
        self.tol_kernel, self.cache = tol_kernel, cache
        self.irreps = {ir.index: ir for ir in spec.irreps}
        table = np.asarray(character_table(spec))
        chi = {ir.index: row for ir, row in zip(spec.irreps, table)}

        def match(target) -> int:
            hits = [p for p, row in chi.items() if np.abs(row - target).max() <= _CHAR_TOL]
            if len(hits) != 1:
                raise GcecError(f"{spec.name}: a moved character matches {len(hits)} irreps")
            return hits[0]

        chars = [p for p, ir in self.irreps.items() if ir.dim == 1]
        self.conj_of = {p: match(row.conj()) for p, row in chi.items()}
        self.twist_of = {s: {p: match(row * chi[s]) for p, row in chi.items()} for s in chars}
        self.moves = [
            Move(s, t, self.twist_of[s][self.conj_of[t]], conj)
            for conj in (False, True)
            for s in chars
            for t in chars
        ]
        self._of: dict[Instance, tuple[Instance, Move | None]] = {}
        self._unitaries: dict = {}
        self._placements: dict = {}

    def irrep_image(self, p: int, twist: int, conj: bool) -> int:
        """The irrep equivalent to conj^c(rho_p) chi_twist."""
        return self.twist_of[twist][self.conj_of[p] if conj else p]

    def parts_image(self, parts: tuple, twist: int, conj: bool) -> tuple:
        """The canonical parts of the representation equivalent to
        conj^c(D) chi_twist."""
        return tuple(sorted((self.irrep_image(p, twist, conj) for p in parts), key=self._canonical))

    def _canonical(self, p: int) -> tuple[int, int]:
        """Sort key of the canonical part order (``reps.make_rep_label``)."""
        return self.irreps[p].dim, p

    def apply(self, move: Move, inst: Instance) -> Instance:
        """The instance ``move`` maps ``inst`` to."""
        omega, parts1, parts2 = inst
        return (
            self.irrep_image(omega, move.u, move.conj),
            self.parts_image(parts1, move.s, move.conj),
            self.parts_image(parts2, move.t, move.conj),
        )

    def representative(self, inst: Instance) -> tuple[Instance, Move | None]:
        """(least instance of the class, the first move that maps it to
        ``inst``); the move is None when ``inst`` is the representative.
        The whole class is assigned when its first instance is asked for."""
        if inst not in self._of:
            rep = min(self.apply(m, inst) for m in self.moves)
            self._of[rep] = (rep, None)
            for m in self.moves:
                self._of.setdefault(self.apply(m, rep), (rep, m))
        return self._of[inst]

    def unitary(self, p: int, twist: int, conj: bool) -> np.ndarray:
        """T with T^dag (conj^c(rho_p) chi_twist) T = rho_p' for the image p'.

        A 1-dim part takes T = 1 and a part whose moved generators equal the
        image's takes the identity, without a kernel solve."""
        key = (p, twist, conj)
        if key not in self._unitaries:
            ir, image = self.irreps[p], self.irreps[self.irrep_image(p, twist, conj)]
            chi = self.irreps[twist].generator_matrices
            moved = tuple(
                (g.conj() if conj else g) * z[0, 0] for g, z in zip(ir.generator_matrices, chi)
            )
            if ir.dim == 1 or all(np.array_equal(a, b) for a, b in zip(moved, image.generator_matrices)):
                self._unitaries[key] = np.eye(ir.dim, dtype=complex)
            else:
                self._unitaries[key] = intertwiner(image.generator_matrices, moved, self.tol_kernel, self.cache)
        return self._unitaries[key]

    def placement(self, parts: tuple, twist: int, conj: bool) -> np.ndarray:
        """Unitary P with P^dag (conj^c(D) chi_twist) P = D' for the
        representation D with these parts and its image D': the part at
        canonical position j of D' takes the unitary of the moved part
        that sorts there, equal parts keeping their order."""
        key = (parts, twist, conj)
        if key not in self._placements:
            dims = [self.irreps[p].dim for p in parts]
            starts = np.cumsum([0] + dims)
            moved = [self.irrep_image(p, twist, conj) for p in parts]
            order = sorted(range(len(parts)), key=lambda i: self._canonical(moved[i]))
            out = np.zeros((starts[-1], starts[-1]), dtype=complex)
            at = 0
            for i in order:
                out[starts[i] : starts[i + 1], at : at + dims[i]] = self.unitary(parts[i], twist, conj)
                at += dims[i]
            self._placements[key] = out
        return self._placements[key]

    def transport(self, kraus: KrausSet, rep: Instance, move: Move) -> KrausSet:
        """The Kraus set of the instance ``move`` maps ``rep`` to:
        A'_j = sum_k conj(Q_kj) R^dag B_k P (see the module docstring)."""
        omega, parts1, parts2 = rep
        P = self.placement(parts1, move.s, move.conj)
        R = self.placement(parts2, move.t, move.conj)
        Q = self.placement((omega,), move.u, move.conj)
        B = kraus.matrices.conj() if move.conj else kraus.matrices
        return KrausSet(matrices=np.einsum("kj,kab->jab", Q.conj(), R.conj().T @ B @ P))
