"""Scalar reference implementations of the consensus and contig steps.

The readable specification of paper §II steps 3-4 and 6 that the
production ``repro.graph.contigs.consensus_of_layouts``,
``repro.distributed.traversal.contigs_from_paths`` and
``repro.core.focus.deduplicate_contigs`` are checked against: one
``np.add.at`` per read or path node, and each candidate placed afresh
on the kept contigs by the reference placement
(``tests/reference/placement.py``).  ``consensus_from_layout`` takes
one cluster and gives what ``consensus_of_layouts`` gives for it; the
other two take the production functions' arguments and give their
results.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.dgraph import DistributedAssemblyGraph
from repro.sequence.dna import decode, reverse_complement

from tests.reference.finish_loop import alive_incident, edge_delta
from tests.reference.placement import place_each

__all__ = ["consensus_from_layout", "contigs_from_paths", "deduplicate_contigs"]


def consensus_from_layout(reads, nodes, offsets, quality_weighted=False):
    """Majority-vote consensus of the stacked reads, one read at a time."""
    nodes = np.asarray(nodes, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    if nodes.size == 0:
        return []
    weighted = quality_weighted and reads.has_quals
    shifted = offsets - offsets.min()
    width = int((shifted + reads.lengths[nodes]).max())
    counts = np.zeros((width, 4), dtype=np.float64 if weighted else np.int64)
    for v, off in zip(nodes.tolist(), shifted.tolist()):
        codes = reads.codes_of(v)
        called = codes < 4
        pos = np.arange(codes.size)[called] + off
        if weighted:
            quals = reads.quals_of(v)[called]
            votes = 1.0 - np.power(10.0, -quals / 10.0)
            np.add.at(counts, (pos, codes[called].astype(np.int64)), votes)
        else:
            np.add.at(counts, (pos, codes[called].astype(np.int64)), 1)
    coverage = counts.sum(axis=1)
    consensus = counts.argmax(axis=1).astype(np.uint8)
    covered = coverage > 0
    # Split at zero-coverage columns.
    segments = []
    if covered.any():
        edges = np.flatnonzero(np.diff(covered.astype(np.int8)))
        bounds = np.concatenate([[0], edges + 1, [width]])
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if covered[lo]:
                segments.append(consensus[lo:hi].copy())
    return segments


def contigs_from_paths(
    dag: DistributedAssemblyGraph, paths: list[list[int]]
) -> list[np.ndarray]:
    """One consensus sequence per path, overlaying contigs at offsets."""
    out: list[np.ndarray] = []
    contigs = dag.assembly.contigs
    for path in paths:
        if len(path) == 1:
            out.append(contigs[path[0]].copy())
            continue
        deltas = []
        for head, tail in zip(path[:-1], path[1:]):
            nbrs, eids = alive_incident(dag, head)
            hit = np.flatnonzero(nbrs == tail)
            if not (dag.node_alive[head] and hit.size):
                raise ValueError(f"path step {head}->{tail} has no alive edge")
            deltas.append(edge_delta(dag.graph, int(eids[hit[0]]), head))
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
            if place_each([contig], kept, 21, min_identity, min_votes=3)[0] is not None:
                continue
        kept.append(contig)
        kept_strings.append(seq)
    return kept
