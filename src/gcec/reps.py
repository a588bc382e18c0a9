"""Enumeration and materialization of d-dimensional representations.

A d-dimensional representation is a multiset of catalog irreps whose
dimensions sum to d, in canonical (dimension, index) order.  Its split has
one part per irrep, at the irrep's offset in the block-diagonal direct sum.
The catalog irreps are irreducible and pairwise inequivalent (a test checks
the catalog), so parts of different content are inequivalent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionZero, UnknownIrrepIndex
from .groups import GroupSpec, Irrep, direct_sum


@dataclass(frozen=True)
class RepLabel:
    """A multiset of irrep indices with its total dimension and display text."""

    parts: tuple[int, ...]
    total_dim: int
    text: str


@dataclass(frozen=True)
class InvariantBlock:
    """One part of a representation: an irrep of a :class:`Rep`'s split, or
    any invariant set of basis indices, such as a whole rotated
    representation.

    ``index`` holds the part's sorted basis indices, ``generators`` the
    generator sub-blocks on them (complex, so equal content always has
    equal bytes) and ``content`` those sub-blocks' bytes.
    """

    index: np.ndarray
    generators: tuple[np.ndarray, ...]
    content: tuple[bytes, ...]

    @staticmethod
    def on(index: np.ndarray, generators) -> "InvariantBlock":
        """The part on ``index`` with the given generator sub-blocks."""
        gens = tuple(g.astype(complex, copy=False) for g in generators)
        return InvariantBlock(index, gens, tuple(g.tobytes() for g in gens))


@dataclass(frozen=True)
class Rep:
    """The direct sum of the catalog irreps that ``label`` names, in its
    canonical order; everything else is derived from ``spec`` and ``label``."""

    spec: GroupSpec
    label: RepLabel

    @property
    def dim(self) -> int:
        return self.label.total_dim

    @property
    def generator_matrices(self) -> tuple[np.ndarray, ...]:
        """The block-diagonal direct sums of the parts' generator matrices."""
        return tuple(direct_sum([part.generators[g] for part in self.split]) for g in range(self.spec.num_generators))

    @cached_property
    def split(self) -> tuple[InvariantBlock, ...]:
        """One part per irrep of the label, at its offset in the direct sum;
        computed once per object."""
        irreps = [self.spec.irrep_by_index(p) for p in self.label.parts]
        offsets = np.cumsum([0, *(ir.dim for ir in irreps)])
        return tuple(
            InvariantBlock.on(np.arange(at, at + ir.dim), ir.generator_matrices) for ir, at in zip(irreps, offsets)
        )


def make_rep_label(spec: GroupSpec, parts) -> RepLabel:
    """Canonicalize a part multiset: sort by (irrep dim, irrep index)."""
    by_index = {ir.index: ir for ir in spec.irreps}
    try:
        chosen = [by_index[p] for p in parts]
    except KeyError as exc:
        raise UnknownIrrepIndex(
            f"{spec.name} catalog has no irrep with index {exc.args[0]}"
        ) from None
    chosen.sort(key=lambda ir: (ir.dim, ir.index))
    return RepLabel(
        parts=tuple(ir.index for ir in chosen),
        total_dim=sum(ir.dim for ir in chosen),
        text="+".join(ir.label for ir in chosen),
    )


def enumerate_reps(spec: GroupSpec, d: int) -> list[RepLabel]:
    """All multisets of catalog irreps with total dimension d, each once.

    Output order is lexicographic in the (canonically sorted) index tuples,
    so repeated runs and reports always agree.
    """
    if d < 1:
        raise DimensionZero(f"representation dimension must be >= 1, got {d}")
    irreps = sorted(
        (ir for ir in spec.irreps if ir.dim <= d), key=lambda ir: (ir.dim, ir.index)
    )
    out: list[RepLabel] = []
    stack = [(0, d, ())]  # (first irrep left to place, dimension left, parts so far)
    while stack:
        start, remaining, acc = stack.pop()
        if remaining == 0:
            out.append(make_rep_label(spec, acc))
        for pos in range(start, len(irreps)):  # irreps[pos] placed m >= 1 times, then the irreps after it
            dim, part = irreps[pos].dim, (irreps[pos].index,)
            if dim > remaining:
                break  # and so are the irreps after it
            if pos + 1 < len(irreps):
                for m in range(1, remaining // dim + 1):
                    stack.append((pos + 1, remaining - m * dim, acc + part * m))
            elif remaining % dim == 0:  # the last irrep can only fill what is left
                stack.append((pos + 1, 0, acc + part * (remaining // dim)))
    out.sort(key=lambda lab: lab.parts)
    return out


def materialize(spec: GroupSpec, label: RepLabel) -> Rep:
    """The representation that ``label`` names."""
    return Rep(spec, label)


def omega_candidates(spec: GroupSpec, d: int) -> list[Irrep]:
    """Catalog irreps that can label a channel on a d-dimensional system,
    i.e. those with dimension at most d (the Kraus count never exceeds d for
    a generalized-extreme channel)."""
    if d < 1:
        raise DimensionZero(f"dimension must be >= 1, got {d}")
    return [ir for ir in spec.irreps if ir.dim <= d]
