"""Enumeration and materialization of d-dimensional representations.

A d-dimensional representation is a multiset of catalog irreps whose
dimensions sum to d, realized concretely as block-diagonal generator
matrices with the blocks in canonical (dimension, index) order.  A
materialized representation also knows its finest invariant split, which
the covariance kernels read once per representation.
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
    """One part of a representation's finest invariant split.

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


def _invariant_blocks(gens) -> list[np.ndarray]:
    """Finest partition of the basis indices that every generator maps into
    itself: connected components of the generators' joint nonzero pattern,
    each sorted, ordered by smallest index."""
    d = gens[0].shape[0]
    reach = np.eye(d, dtype=int) + sum((g != 0) | (g.T != 0) for g in gens)
    for _ in range(d.bit_length()):  # transitive closure by repeated squaring
        reach = ((reach @ reach) > 0).astype(int)
    return [np.flatnonzero(reach[i]) for i in range(d) if not reach[i, :i].any()]


@dataclass(frozen=True)
class Rep:
    """A concrete block-diagonal representation."""

    label: RepLabel
    generator_matrices: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.label.total_dim

    @cached_property
    def split(self) -> tuple[InvariantBlock, ...]:
        """The finest invariant split, read off the generators' nonzero
        pattern (never from the label); computed once per object."""
        return tuple(
            InvariantBlock.on(idx, (g[idx[:, None], idx] for g in self.generator_matrices))
            for idx in _invariant_blocks(self.generator_matrices)
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

    def extend(start: int, remaining: int, acc: list[int]) -> None:
        if remaining == 0:
            out.append(make_rep_label(spec, acc))
            return
        for pos in range(start, len(irreps)):
            ir = irreps[pos]
            if ir.dim <= remaining:
                extend(pos, remaining - ir.dim, acc + [ir.index])

    extend(0, d, [])
    out.sort(key=lambda lab: lab.parts)
    return out


def materialize(spec: GroupSpec, label: RepLabel) -> Rep:
    """Assemble the block-diagonal generator matrices for ``label``."""
    irreps = [spec.irrep_by_index(p) for p in label.parts]
    mats = tuple(direct_sum([ir.generator_matrices[g] for ir in irreps]) for g in range(spec.num_generators))
    return Rep(label=label, generator_matrices=mats)


def omega_candidates(spec: GroupSpec, d: int) -> list[Irrep]:
    """Catalog irreps that can label a channel on a d-dimensional system,
    i.e. those with dimension at most d (the Kraus count never exceeds d for
    a generalized-extreme channel)."""
    if d < 1:
        raise DimensionZero(f"dimension must be >= 1, got {d}")
    return [ir for ir in spec.irreps if ir.dim <= d]
