"""Static catalog of groups and their irreducible representations.

Finite discrete groups are described by generator images and defining
relations; the compact Lie cases (SO3, SU2) are described at the algebra
level by ladder/Cartan triples (L+, L-, Lz).  Cyclic and dihedral groups are
available for any order through the names ``Z<n>`` and ``D<n>``; ``S3`` and
``A4`` are explicit entries.

All matrices are materialized in double precision; roots of unity come from
the complex exponential.  New groups can be registered by extending
``_DISCRETE_BUILDERS`` with a callable returning a :class:`GroupSpec` (see
the existing builders for the expected shape: generator images per irrep,
plus defining relations as pairs of generator words).  :func:`direct_sum`
is the one block-diagonal direct sum of matrices, in the given order.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DimensionZero, ParityError, UnknownGroup, UnknownIrrepIndex

# A word is a sequence of generator indices; a relation equates two words.
Word = tuple[int, ...]
Relation = tuple[Word, Word]


def _frozen(rows) -> np.ndarray:
    m = np.array(rows, dtype=complex)
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class Irrep:
    """One irreducible representation, given by its generator images.

    For discrete groups ``generator_matrices`` holds one unitary per group
    generator; for the Lie algebras it holds the triple (L+, L-, Lz).
    """

    index: int
    dim: int
    label: str
    generator_matrices: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class GroupSpec:
    name: str
    kind: str  # "discrete" | "lie"
    num_generators: int
    irreps: tuple[Irrep, ...]
    generator_names: tuple[str, ...] = ()
    relations: tuple[Relation, ...] = ()  # discrete groups only

    def irrep_by_index(self, index: int) -> Irrep:
        for ir in self.irreps:
            if ir.index == index:
                return ir
        raise UnknownIrrepIndex(f"{self.name} has no irrep with index {index}")


@dataclass(frozen=True)
class GroupProps:
    """Catalog lookup payload: restricted irrep list plus the derived counts."""

    group: GroupSpec
    num_irreps: int
    irrep_dims: tuple[int, ...]
    num_reps: int


# ---------------------------------------------------------------------------
# discrete-group builders
# ---------------------------------------------------------------------------


def _cyclic(n: int) -> GroupSpec:
    # One generator r with r^n = e; irreps are the n characters r -> e^{2pi i k/n}.
    irreps = tuple(
        Irrep(k, 1, f"q{k}", (_frozen([[np.exp(2j * np.pi * k / n)]]),))
        for k in range(n)
    )
    return GroupSpec(
        name=f"Z{n}",
        kind="discrete",
        num_generators=1,
        irreps=irreps,
        generator_names=("r",),
        relations=(((0,) * n, ()),),
    )


def _symmetric3() -> GroupSpec:
    # Generators: two adjacent transpositions s1, s2 with s1^2 = s2^2 = e and
    # the braid relation s1 s2 s1 = s2 s1 s2.
    s3 = np.sqrt(3.0)
    irreps = (
        Irrep(0, 1, "1", (_frozen([[1.0]]), _frozen([[1.0]]))),
        Irrep(1, 1, "1'", (_frozen([[-1.0]]), _frozen([[-1.0]]))),
        Irrep(
            2,
            2,
            "2",
            (
                _frozen([[1.0, 0.0], [0.0, -1.0]]),
                _frozen([[-0.5, s3 / 2], [s3 / 2, 0.5]]),
            ),
        ),
    )
    return GroupSpec(
        name="S3",
        kind="discrete",
        num_generators=2,
        irreps=irreps,
        generator_names=("s1", "s2"),
        relations=(((0, 0), ()), ((1, 1), ()), ((0, 1, 0), (1, 0, 1))),
    )


def _alternating4() -> GroupSpec:
    # Generators: two 3-cycles g1, g2 with g1^3 = g2^3 = (g1 g2)^2 = e.  The
    # three characters factor through the quotient by the Klein four-group,
    # which forces g2 -> g1^2 on scalars.
    w = np.exp(2j * np.pi / 3)
    g1_3 = _frozen(np.diag([1.0, w, w * w]))
    g2_3 = _frozen(
        (-1.0 / 3.0)
        * np.array(
            [
                [1.0, -2.0 * w * w, 2.0 * w],
                [-2.0, w * w, 2.0 * w],
                [2.0, 2.0 * w * w, w],
            ]
        )
    )
    irreps = (
        Irrep(0, 1, "1", (_frozen([[1.0]]), _frozen([[1.0]]))),
        Irrep(1, 1, "1'", (_frozen([[w]]), _frozen([[w * w]]))),
        Irrep(2, 1, "1''", (_frozen([[w * w]]), _frozen([[w]]))),
        Irrep(3, 3, "3", (g1_3, g2_3)),
    )
    return GroupSpec(
        name="A4",
        kind="discrete",
        num_generators=2,
        irreps=irreps,
        generator_names=("g1", "g2"),
        relations=(((0, 0, 0), ()), ((1, 1, 1), ()), ((0, 1, 0, 1), ())),
    )


def _rotation(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _dihedral(n: int) -> GroupSpec:
    # Generators: a reflection f and the basic rotation r, with
    # f^2 = r^n = (f r)^2 = e.  One-dimensional irreps send both generators to
    # signs; r -> -1 is only consistent when n is even.
    flip = _frozen([[1.0, 0.0], [0.0, -1.0]])
    one_dims: list[tuple[float, float]] = [(1.0, 1.0), (-1.0, 1.0)]
    if n % 2 == 0:
        one_dims += [(1.0, -1.0), (-1.0, -1.0)]
    labels = ["1", "1'", "1''", "1'''"]
    irreps: list[Irrep] = [
        Irrep(i, 1, labels[i], (_frozen([[a]]), _frozen([[b]])))
        for i, (a, b) in enumerate(one_dims)
    ]
    base = len(irreps)
    for k in range(1, (n + 1) // 2 if n % 2 else n // 2):
        irreps.append(
            Irrep(
                base + k - 1,
                2,
                f"2_{k}",
                (flip, _frozen(_rotation(2.0 * np.pi * k / n))),
            )
        )
    return GroupSpec(
        name=f"D{n}",
        kind="discrete",
        num_generators=2,
        irreps=tuple(irreps),
        generator_names=("f", "r"),
        relations=(((0, 0), ()), (((1,) * n), ()), ((0, 1, 0, 1), ())),
    )


_DISCRETE_BUILDERS = {
    "S3": _symmetric3,
    "A4": _alternating4,
}


# ---------------------------------------------------------------------------
# Lie-algebra irreps
# ---------------------------------------------------------------------------


def lie_irrep(algebra: str, dim: int) -> Irrep:
    """Spin-j ladder/Cartan triple (L+, L-, Lz) in dimension ``dim``.

    The basis is ordered by descending magnetic quantum number, so
    Lz = diag(j, j-1, ..., -j) and L+ sits on the superdiagonal with the
    standard raising coefficients sqrt(j(j+1) - m(m+1)).  For so3 the
    dimension must be odd (integer j); su2 admits every dimension.
    """
    if algebra not in ("so3", "su2"):
        raise UnknownGroup(f"unknown Lie algebra {algebra!r} (expected so3 or su2)")
    if dim < 1:
        raise DimensionZero(f"irrep dimension must be >= 1, got {dim}")
    if algebra == "so3" and dim % 2 == 0:
        raise ParityError(f"so3 has no unitary irrep of even dimension {dim}")
    # Exact half-integer arithmetic for the m values avoids spurious rounding
    # in the raising coefficients.
    j = Fraction(dim - 1, 2)
    ms = [j - k for k in range(dim)]
    lz = np.diag([float(m) for m in ms]).astype(complex)
    lp = np.zeros((dim, dim), dtype=complex)
    for col, m in enumerate(ms):
        if m < j:
            lp[col - 1, col] = np.sqrt(float(j * (j + 1) - m * (m + 1)))
    lm = lp.conj().T.copy()
    for mat in (lp, lm, lz):
        mat.setflags(write=False)
    index = (dim - 1) // 2 if algebra == "so3" else dim - 1
    return Irrep(index, dim, str(dim), (lp, lm, lz))


def _lie_group(name: str, max_dim: int) -> GroupSpec:
    algebra = "so3" if name == "SO3" else "su2"
    dims = range(1, max_dim + 1, 2) if algebra == "so3" else range(1, max_dim + 1)
    irreps = tuple(lie_irrep(algebra, m) for m in dims)
    return GroupSpec(
        name=name,
        kind="lie",
        num_generators=3,
        irreps=irreps,
        generator_names=("L+", "L-", "Lz"),
    )


# ---------------------------------------------------------------------------
# catalog lookup
# ---------------------------------------------------------------------------


def _count_multisets(dims: tuple[int, ...], total: int) -> int:
    """Number of multisets of catalog irreps whose dimensions sum to ``total``."""
    counts = [1] + [0] * total
    for dim in dims:
        for j in range(dim, total + 1):
            counts[j] += counts[j - dim]
    return counts[total]


def _lookup(group_name: str) -> GroupSpec | None:
    if group_name in _DISCRETE_BUILDERS:
        return _DISCRETE_BUILDERS[group_name]()
    m = re.fullmatch(r"([ZD])([1-9][0-9]*)", group_name)  # ASCII, no leading zero: one name per group
    if m and m[1] == "Z":
        return _cyclic(int(m[2]))
    if m and int(m[2]) >= 2:
        return _dihedral(int(m[2]))
    return None


def props(group_name: str, group_kind: str, hilbert_dim: int) -> GroupProps:
    """Catalog lookup: irreps of dimension <= ``hilbert_dim`` plus counts.

    ``num_reps`` counts the multisets of catalog irreps whose dimensions sum
    to ``hilbert_dim`` — the number of inequivalent d-dimensional reps built
    as direct sums.
    """
    if hilbert_dim < 1:
        raise DimensionZero(
            f"hilbert_dim must be >= 1, got {hilbert_dim}: no states exist"
        )
    if group_kind not in ("discrete", "lie"):
        raise UnknownGroup(f"unknown group kind {group_kind!r}")
    if group_name in ("SO3", "SU2"):
        if group_kind != "lie":
            raise UnknownGroup(f"{group_name} is a Lie group; pass kind='lie'")
        full = _lie_group(group_name, hilbert_dim)
    else:
        spec = _lookup(group_name)
        if spec is None:
            raise UnknownGroup(f"no catalog entry for group {group_name!r}")
        if group_kind != "discrete":
            raise UnknownGroup(f"{group_name} is discrete; pass kind='discrete'")
        full = spec
    kept = tuple(ir for ir in full.irreps if ir.dim <= hilbert_dim)
    restricted = GroupSpec(
        name=full.name,
        kind=full.kind,
        num_generators=full.num_generators,
        irreps=kept,
        generator_names=full.generator_names,
        relations=full.relations,
    )
    dims = tuple(ir.dim for ir in kept)
    return GroupProps(
        group=restricted,
        num_irreps=len(kept),
        irrep_dims=dims,
        num_reps=_count_multisets(dims, hilbert_dim),
    )


@lru_cache(maxsize=256)  # a catalog group is built anew on each lookup
def irrep_label(group_name: str, index: int) -> str:
    """The label of a catalog group's irrep ``index``, of any dimension: a Lie
    group has one per index >= 0, labelled by its dimension, 2 index + 1 on
    SO3 and index + 1 on SU2."""
    if group_name not in ("SO3", "SU2"):
        return _lookup(group_name).irrep_by_index(index).label
    if index < 0:
        raise UnknownIrrepIndex(f"{group_name} has no irrep with index {index}")
    return str(2 * index + 1 if group_name == "SO3" else index + 1)


def infer_kind(group_name: str) -> str:
    """Guess the catalog kind for a group name ("lie" for SO3/SU2)."""
    return "lie" if group_name in ("SO3", "SU2") else "discrete"


# ---------------------------------------------------------------------------
# element enumeration (finite groups)
# ---------------------------------------------------------------------------


def direct_sum(blocks) -> np.ndarray:
    """The square matrices ``blocks`` as one complex block-diagonal matrix, in order."""
    dims = [len(block) for block in blocks]
    out = np.zeros((sum(dims), sum(dims)), dtype=complex)
    at = 0  # a Python running offset: np.cumsum would take most of a small sum's time
    for block, dim in zip(blocks, dims):
        out[at : at + dim, at : at + dim] = block
        at += dim
    return out


def word_matrix(irrep: Irrep, word: Word) -> np.ndarray:
    """Product of generator images along ``word`` (empty word -> identity)."""
    out = np.eye(irrep.dim, dtype=complex)
    for g in word:
        out = out @ irrep.generator_matrices[g]
    return out


MAX_ELEMENTS = 100_000  # largest G/N the element closure enumerates


def _element_key(mat: np.ndarray) -> bytes:
    """Fingerprint of a group element from its direct-sum matrix."""
    return (np.round(mat, 9) + 0.0).tobytes()  # +0.0 folds -0.0 into +0.0


def _closure(spec: GroupSpec) -> tuple[list[Word], np.ndarray]:
    """(one word per element of G/N, right) with right[i, g] the index of
    the element words[i] times generator g.

    Breadth first from the identity, taking generators in order: each
    element keeps the first word that reaches it, so the words come out
    sorted by (length, word) and each word's prefix is an earlier word.
    """
    if spec.kind != "discrete":
        raise UnknownGroup(f"element enumeration needs a finite group, not {spec.name}")
    gens = [direct_sum([ir.generator_matrices[g] for ir in spec.irreps]) for g in range(spec.num_generators)]
    eye = np.eye(sum(ir.dim for ir in spec.irreps), dtype=complex)
    index = {_element_key(eye): 0}
    words: list[Word] = [()]
    queue = deque([eye])  # matrices of words[len(right):], the closure's frontier
    right = []
    while queue:
        mat, row = queue.popleft(), []
        for g, gen in enumerate(gens):
            nxt = mat @ gen
            k = _element_key(nxt)
            if k not in index:
                if len(words) >= MAX_ELEMENTS:
                    raise UnknownGroup(f"{spec.name}: element closure exceeded {MAX_ELEMENTS}")
                index[k] = len(words)
                words.append(words[len(right)] + (g,))
                queue.append(nxt)
            row.append(index[k])
        right.append(row)
    return words, np.array(right, dtype=int).reshape(len(words), len(gens))


def along_words(words: list[Word], first, times) -> list:
    """One value per word, built along the words: ``first`` at the empty
    word words[0], and ``times(value at w[:-1], w[-1])`` at each later word
    w, whose prefix w[:-1] is an earlier word, as in the closure's words."""
    position = {w: j for j, w in enumerate(words)}
    values = [first]
    for w in words[1:]:
        values.append(times(values[position[w[:-1]]], w[-1]))
    return values


def cayley_table(spec: GroupSpec) -> tuple[list[Word], np.ndarray, np.ndarray]:
    """(words, gens, table) for G/N: one word per element of G/N, sorted by
    (length, word), the index of each generator's element, and the
    multiplication table, table[i, j] the index of words[i] words[j].

    Elements are fingerprinted through the direct sum of the spec's irreps,
    whose kernel N is the common kernel of those irreps.  For a full catalog
    spec the sum holds every irreducible constituent of the regular
    representation, so it is faithful, N is trivial and the words enumerate
    G.  A spec restricted by :func:`props` to irreps of dimension <= d keeps
    only some irreps, and the words then enumerate the quotient G/N: S3 at
    d=1 gives 2 words, A4 at d=1 gives 3 and D5 at d=1 gives 2.  Column j
    is read off the closure's right multiplication by generators.
    """
    words, right = _closure(spec)
    columns = along_words(words, np.arange(len(words)), lambda column, g: right[column, g])
    return words, right[0], np.column_stack(columns)


def character_table(spec: GroupSpec, words: list[Word] | None = None) -> np.ndarray:
    """Characters chi_i(g) over the words of :func:`cayley_table` (pass
    them as ``words`` when already at hand), shape (num_irreps, |G/N|).

    N is the common kernel of the spec's irreps (trivial for a full catalog
    spec, see :func:`cayley_table`).  Every kept irrep is constant on the
    cosets of N, so the rows are orthonormal under the inner product
    (1/|G/N|) sum_g chi_i(g) conj(chi_j(g)), and character inner products
    among the kept irreps are those of G.  Each word's matrix is its
    prefix's times one generator, the product :func:`word_matrix` forms
    last, so the values are :func:`word_matrix`'s.
    """
    if words is None:
        words = _closure(spec)[0]
    table = np.empty((len(spec.irreps), len(words)), dtype=complex)
    for i, ir in enumerate(spec.irreps):
        mats = along_words(words, np.eye(ir.dim, dtype=complex), lambda mat, g: mat @ ir.generator_matrices[g])
        table[i] = [np.trace(m) for m in mats]
    return table
