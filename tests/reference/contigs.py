"""Scalar reference implementations of the contig-emission step.

The readable specification of paper §II step 6 that the production
``repro.distributed.traversal.contigs_from_paths`` and
``repro.core.focus.deduplicate_contigs`` are checked against: one
``np.add.at`` per path node, and one fresh :class:`SequenceMapper` over
the kept contigs per candidate.  Same arguments and results as the
production functions.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.mapping import SequenceMapper
from repro.distributed.dgraph import DistributedAssemblyGraph
from repro.graph.sparse import masked_view
from repro.sequence.dna import decode, reverse_complement

__all__ = ["contigs_from_paths", "deduplicate_contigs"]


def contigs_from_paths(
    dag: DistributedAssemblyGraph, paths: list[list[int]]
) -> list[np.ndarray]:
    """One consensus sequence per path, overlaying contigs at offsets."""
    out: list[np.ndarray] = []
    contigs = dag.assembly.contigs
    view = masked_view(dag)
    for path in paths:
        if len(path) == 1:
            out.append(contigs[path[0]].copy())
            continue
        heads = np.asarray(path[:-1], dtype=np.int64)
        tails = np.asarray(path[1:], dtype=np.int64)
        deltas, found = view.pair_deltas(heads, tails)
        if not found.all():
            i = int(np.flatnonzero(~found)[0])
            raise ValueError(
                f"path step {int(heads[i])}->{int(tails[i])} has no alive edge"
            )
        offs = np.concatenate([[0], np.cumsum(deltas)])
        offsets = (offs - offs.min()).tolist()
        width = max(o + contigs[v].size for o, v in zip(offsets, path))
        counts = np.zeros((width, 4), dtype=np.int64)
        for o, v in zip(offsets, path):
            c = contigs[v]
            called = c < 4
            pos = np.arange(c.size)[called] + o
            np.add.at(counts, (pos, c[called].astype(np.int64)), 1)
        seq = counts.argmax(axis=1).astype(np.uint8)
        covered = counts.sum(axis=1) > 0
        out.append(seq[covered])
    return out


def deduplicate_contigs(
    contigs: list[np.ndarray], min_identity: float = 0.98
) -> list[np.ndarray]:
    """Drop contigs that duplicate another up to reverse complement."""
    order = sorted(range(len(contigs)), key=lambda i: -contigs[i].size)
    kept: list[np.ndarray] = []
    kept_strings: list[str] = []
    for i in order:
        contig = contigs[i]
        seq = decode(contig)
        rc = decode(reverse_complement(contig))
        # Exact containment, either strand.
        if any(seq in k or rc in k for k in kept_strings):
            continue
        # Near-duplicate: placement on a kept contig at >= min_identity.
        if kept and contig.size >= 64:
            mapper = SequenceMapper(kept, k=21)
            hit = mapper.place(contig, min_identity=min_identity, min_votes=3)
            if hit is not None:
                continue
        kept.append(contig)
        kept_strings.append(seq)
    return kept
