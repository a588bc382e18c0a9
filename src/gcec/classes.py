"""Label classes of a finite-group sweep, and transport between their members.

Three moves map an instance (D1, D2, Omega) to an equivalent one:

* twist by 1-dimensional characters chi_s, chi_t:
  (D1 chi_s, D2 chi_t, Omega chi_s conj(chi_t)), since
  (D2 chi_t)^dag A (D1 chi_s) = chi_s conj(chi_t) D2^dag A D1;
* conjugation: (conj D1, conj D2, conj Omega), with conj(A_k) as Kraus set;
* an automorphism alpha of the group: (D1 o alpha, D2 o alpha,
  Omega o alpha), with the same Kraus set, since the covariance relation
  D2(g)^dag A_k D1(g) = sum_l Omega(g)_kl A_l holds at every element g,
  hence at alpha(g).

All three act on labels through irrep permutations read off the character
table: twisting by chi_s sends irrep p to the irrep whose character is
chi_p chi_s, conjugation to the one whose character is conj(chi_p), and
alpha to the one whose character is chi_p o alpha.  Characters are matched
within ``_CHAR_TOL`` (Zn characters carry roundoff, such as Z2's
-1 + 1.2e-16j) and each must match exactly one irrep.  The moves form a
group; each element is an automorphism, then an optional conjugation, then
one twist, written :class:`Move` (s, t, conj, aut).  A *class* is an orbit
of that group, and its representative is its least instance in sweep order
(Omega index, D1 parts, D2 parts).

Automorphisms.  The search runs on the group the spec's irreps see: for a
spec restricted to irreps of dimension <= d, the words of
:func:`gcec.groups.cayley_table` enumerate G/N, with N the common kernel of
the kept irreps, and every kept irrep factors through G/N, so the
automorphisms of G/N are the ones to find.  A candidate picks one element
of G/N per generator.  It is an automorphism when the images satisfy
``spec.relations`` (so they define a homomorphism from G) and map the
element words one to one (so it is onto G/N; then each rho_p o alpha is an
irreducible representation of dimension dim rho_p <= d, hence kept, and N
lies in the kernel).  Both checks are lookups in the Cayley table of G/N.
Candidates are cut down first: each generator's image has the generator's
order, and generator 0's image is the least element of its conjugacy
class, since alpha and h alpha h^-1 differ by an inner automorphism, which
fixes every character.  The candidates left number a few times
|Out(G/N)|, each checked with about |G/N| table lookups, and chi_p o alpha
is read at alpha's element indices and matched by its rounded values
(:func:`_char_key`).  The twists and conjugation form a normal subgroup of
the moves (alpha^-1 twist_s alpha is the twist by chi_s o alpha, and
conjugation commutes with alpha), so one automorphism per coset is enough:
an automorphism is kept when its irrep permutation is neither the identity
or conjugation nor that of a kept one or of a kept one composed with
conjugation.  No automorphism is kept on Z2, Z3, Z4, S3 or A4; on D5 one
is, swapping 2_1 and 2_2.

Transport.  Write B_k = conj(A_k) when the move conjugates and A_k
otherwise, and M1 = c(D1 o alpha) chi_s, M2 = c(D2 o alpha) chi_t and
M = c(Omega o alpha) chi_s conj(chi_t) for the moved representations
(alpha the identity when the move has no automorphism).  The
representative's relation at alpha(g), conjugated when c and multiplied by
chi_s conj(chi_t), reads M2^dag B_k M1 = sum_l M_kl B_l at g: the
automorphism moves the representations and leaves B_k as it is.  For
unitaries P, R and Q with P^dag M1 P = D1', R^dag M2 R = D2' and
Q^dag M Q = Omega', the member's Kraus operators

    A'_j = sum_k conj(Q_kj) R^dag B_k P

satisfy D2'^dag A'_j D1' = sum_l Omega'_jl A'_l and sum_j A'_j^dag A'_j =
P^dag (sum_k B_k^dag B_k) P = 1.  The Kraus products A'_i^dag A'_j are a
unitary recombination of the P^dag B_k^dag B_l P, so the singular values of
the product stack, and with them the rank test, carry over too.  Each of
P, R and Q is a block permutation of one unitary per irrep part
(:func:`gcec.kernels.intertwiner`, with rho o alpha at generator g read as
:func:`gcec.groups.word_matrix` of rho at alpha's word for g), placed by the
canonical sort of the moved parts.  :meth:`LabelClasses.transport` moves a
whole (S, K, d, d) sample stack at once; each moved set is bitwise the one
the same formula gives for that set alone.

Orbits.  Each label (a D's parts, or an Omega) gets a table of its images
under every (automorphism, conjugation, twist) the first time it is seen,
so an orbit is read by lookups alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import GcecError
from .groups import GroupSpec, Word, along_words, cayley_table, character_table, word_matrix
from .kernels import intertwiner

_CHAR_TOL = 1e-8  # characters are sums of roots of unity; roundoff is ~1e-15


def _char_key(row: np.ndarray) -> bytes:
    """Lookup key of a character row: its values rounded to _CHAR_TOL."""
    return (np.round(row, 8) + 0.0).tobytes()  # +0.0 folds -0.0 into +0.0


@dataclass(frozen=True)
class Move:
    """Apply the automorphism ``aut`` (an index into
    ``LabelClasses.aut_words``, 0 for the identity), conjugate when
    ``conj``, then twist D1 by the 1-dim irrep ``s``, D2 by ``t`` and Omega
    by ``u``, the irrep whose character is chi_s conj(chi_t)."""

    s: int
    t: int
    u: int
    conj: bool
    aut: int


Instance = tuple  # (Omega index, D1 parts, D2 parts): compares in sweep order


def _automorphisms(spec: GroupSpec) -> tuple[list[Word], list[tuple[tuple[Word, ...], np.ndarray]]]:
    """(the element words of G/N, automorphisms of G/N): one automorphism at
    least per class modulo inner automorphisms (see the module docstring),
    in the order of their generator images, each as (one element word per
    generator, row) with row[i] the index of alpha(words[i])."""
    words, gens, mult = cayley_table(spec)
    n = len(words)
    order, power, k = np.zeros(n, dtype=int), np.arange(n), 1
    while not order.all():  # power = each element to the k-th
        order[(power == 0) & (order == 0)] = k
        power, k = mult[power, np.arange(n)], k + 1
    # alpha and h alpha h^-1 move the irreps alike, so generator 0's image
    # is taken to be the least element of its conjugacy class
    conjugates = mult[mult, np.argmax(mult == 0, axis=1)[:, None]]  # [h, x] = h x h^-1
    least = conjugates.min(axis=0) == np.arange(n)
    choices = [np.flatnonzero((order == order[x]) & (least | (g > 0))) for g, x in enumerate(gens)]
    images = np.array(list(itertools.product(*choices)), dtype=int).reshape(-1, len(gens))

    def image(word: Word) -> np.ndarray:  # each candidate's alpha(word); words[0] = ()
        at = np.zeros(len(images), dtype=int)
        for g in word:
            at = mult[at, images[:, g]]
        return at

    for lhs, rhs in spec.relations:
        images = images[image(lhs) == image(rhs)]
    rows = np.column_stack(along_words(words, np.zeros(len(images), dtype=int), lambda at, g: mult[at, images[:, g]]))
    onto = (np.sort(rows, axis=1) == np.arange(n)).all(axis=1)
    return words, [(tuple(words[i] for i in x), row) for x, row in zip(images[onto], rows[onto])]


class LabelClasses:
    """The classes of one sweep's instances and the transport between them.

    Every intertwiner, placement and label table is computed once per object.
    """

    def __init__(self, spec: GroupSpec):
        self.irreps = {ir.index: ir for ir in spec.irreps}
        words, automorphisms = _automorphisms(spec)
        table = np.asarray(character_table(spec, words))
        chi = {ir.index: row for ir, row in zip(spec.irreps, table)}
        by_key = {_char_key(row): p for p, row in chi.items()}

        def match(target) -> int:
            if (p := by_key.get(_char_key(target))) is not None:
                return p
            # a value within roundoff of a rounding boundary rounds apart
            hits = [p for p, row in chi.items() if np.abs(row - target).max() <= _CHAR_TOL]
            if len(hits) != 1:
                raise GcecError(f"{spec.name}: a moved character matches {len(hits)} irreps")
            return hits[0]

        chars = [p for p, ir in self.irreps.items() if ir.dim == 1]
        self.conj_of = {p: match(row.conj()) for p, row in chi.items()}
        self.twist_of = {s: {p: match(row * chi[s]) for p, row in chi.items()} for s in chars}

        # aut_of[a] maps each irrep to its image under automorphism a, a = 0
        # the identity; one automorphism is kept per coset of the twists and
        # conjugation (module docstring)
        self.aut_words: list[tuple[Word, ...] | None] = [None]
        self.aut_of = [{p: p for p in chi}]
        covered = [self.aut_of[0], self.conj_of]
        for gen_words, row in automorphisms:
            aut = {p: match(chi_p[row]) for p, chi_p in chi.items()}
            if aut not in covered:
                covered += [aut, {p: self.conj_of[q] for p, q in aut.items()}]
                self.aut_words.append(gen_words)
                self.aut_of.append(aut)

        self.moves = [
            Move(s, t, self.twist_of[s][self.conj_of[t]], conj, aut)
            for aut in range(len(self.aut_of))
            for conj in (False, True)
            for s in chars
            for t in chars
        ]
        self._sides = [(a, c, s) for a in range(len(self.aut_of)) for c in (False, True) for s in chars]
        side = {key: i for i, key in enumerate(self._sides)}
        self._move_sides = [
            (side[m.aut, m.conj, m.u], side[m.aut, m.conj, m.s], side[m.aut, m.conj, m.t]) for m in self.moves
        ]
        self._tables: dict = {}
        self._of: dict[Instance, tuple[Instance, Move | None]] = {}
        self._unitaries: dict = {}
        self._placements: dict = {}

    def irrep_image(self, p: int, twist: int, conj: bool, aut: int = 0) -> int:
        """The irrep equivalent to conj^c(rho_p o alpha_aut) chi_twist."""
        q = self.aut_of[aut][p]
        return self.twist_of[twist][self.conj_of[q] if conj else q]

    def parts_image(self, parts: tuple, twist: int, conj: bool, aut: int = 0) -> tuple:
        """The canonical parts of the representation equivalent to
        conj^c(D o alpha_aut) chi_twist."""
        return tuple(sorted((self.irrep_image(p, twist, conj, aut) for p in parts), key=self._canonical))

    def _canonical(self, p: int) -> tuple[int, int]:
        """Sort key of the canonical part order (``reps.make_rep_label``)."""
        return self.irreps[p].dim, p

    def _table(self, label, image) -> tuple:
        """``label``'s images under every (automorphism, conjugation,
        twist), computed the first time it is asked for."""
        if label not in self._tables:
            self._tables[label] = tuple(image(label, s, c, a) for a, c, s in self._sides)
        return self._tables[label]

    def _orbit(self, inst: Instance) -> list[Instance]:
        """The images of ``inst`` under ``self.moves``, in order."""
        omega, parts1, parts2 = inst
        om = self._table(omega, self.irrep_image)
        d1, d2 = self._table(parts1, self.parts_image), self._table(parts2, self.parts_image)
        return [(om[i], d1[j], d2[k]) for i, j, k in self._move_sides]

    def representative(self, inst: Instance) -> tuple[Instance, Move | None]:
        """(least instance of the class, the first move that maps it to
        ``inst``); the move is None when ``inst`` is the representative.
        The whole class is assigned when its first instance is asked for."""
        if inst not in self._of:
            rep = min(self._orbit(inst))
            self._of[rep] = (rep, None)
            for m, image in zip(self.moves, self._orbit(rep)):
                self._of.setdefault(image, (rep, m))
        return self._of[inst]

    def _generators(self, p: int, aut: int) -> tuple:
        """The generator matrices of rho_p o alpha_aut."""
        ir = self.irreps[p]
        if aut == 0:
            return ir.generator_matrices
        return tuple(word_matrix(ir, w) for w in self.aut_words[aut])

    def unitary(self, p: int, twist: int, conj: bool, aut: int = 0) -> np.ndarray:
        """T with T^dag (conj^c(rho_p o alpha_aut) chi_twist) T = rho_p' for
        the image p'.

        A 1-dim part takes T = 1 and a part whose moved generators equal the
        image's takes the identity, without a kernel solve."""
        key = (p, twist, conj, aut)
        if key not in self._unitaries:
            ir, image = self.irreps[p], self.irreps[self.irrep_image(p, twist, conj, aut)]
            chi = self.irreps[twist].generator_matrices
            moved = tuple((g.conj() if conj else g) * z[0, 0] for g, z in zip(self._generators(p, aut), chi))
            if ir.dim == 1 or all(np.array_equal(a, b) for a, b in zip(moved, image.generator_matrices)):
                self._unitaries[key] = np.eye(ir.dim, dtype=complex)
            else:
                self._unitaries[key] = intertwiner(image.generator_matrices, moved)
        return self._unitaries[key]

    def placement(self, parts: tuple, twist: int, conj: bool, aut: int = 0) -> np.ndarray:
        """Unitary P with P^dag (conj^c(D o alpha_aut) chi_twist) P = D' for
        the representation D with these parts and its image D': the part at
        canonical position j of D' takes the unitary of the moved part
        that sorts there, equal parts keeping their order."""
        key = (parts, twist, conj, aut)
        if key not in self._placements:
            dims = [self.irreps[p].dim for p in parts]
            starts = np.cumsum([0] + dims)
            moved = [self.irrep_image(p, twist, conj, aut) for p in parts]
            order = sorted(range(len(parts)), key=lambda i: self._canonical(moved[i]))
            out = np.zeros((starts[-1], starts[-1]), dtype=complex)
            at = 0
            for i in order:
                out[starts[i] : starts[i + 1], at : at + dims[i]] = self.unitary(parts[i], twist, conj, aut)
                at += dims[i]
            self._placements[key] = out
        return self._placements[key]

    def transport(self, stack: np.ndarray, rep: Instance, move: Move) -> np.ndarray:
        """The representative's (S, K, d, d) sample stack moved to the
        instance ``move`` maps ``rep`` to: A'_j = sum_k conj(Q_kj) R^dag B_k P
        for each sample (see the module docstring)."""
        omega, parts1, parts2 = rep
        P = self.placement(parts1, move.s, move.conj, move.aut)
        R = self.placement(parts2, move.t, move.conj, move.aut)
        Q = self.placement((omega,), move.u, move.conj, move.aut)
        B = stack.conj() if move.conj else stack
        return np.einsum("kj,skab->sjab", Q.conj(), R.conj().T @ B @ P)
