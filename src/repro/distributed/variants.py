"""Distributed variant detection on the hybrid graph.

The paper names this as the natural extension of its framework
(§VI-D: "variant detection algorithms can be implemented to be run on
the distributed hybrid graph").  A *bubble* — two parallel contig
branches spanning the same genomic interval — is the graph signature
of a variant: the branches are alternative alleles.  Instead of
popping the bubble (as error removal does), variant detection aligns
the two branch contigs and reports their differences as candidate
variants.  The bubbles are bubble popping's own: both stages read
them from :func:`~repro.distributed.trimming.parallel_branches`.

Workers scan their own partitions for bubbles anchored at their nodes;
the master merges and deduplicates the calls — the same
scan-locally/apply-centrally pattern as the other §V algorithms,
registered as the ``variants`` stage so it runs on every execution
backend.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.align.banded_nw import banded_align
from repro.distributed.dgraph import DistributedAssemblyGraph
from repro.distributed.stages import register_stage
from repro.distributed.trimming import parallel_branches
from repro.io.readset import ragged_positions
from repro.sequence.dna import decode

__all__ = ["Variant", "find_bubble_variants", "variants_kernel", "variants_merge"]


@dataclass(frozen=True)
class Variant:
    """A candidate variant between two alternative branch contigs.

    ``position`` is the offset within the reference (longer) branch;
    SNVs carry single-base alleles, indels the inserted/deleted run.
    """

    anchor: int  # hybrid node where the branches diverge
    ref_node: int  # branch node treated as reference (longer contig)
    alt_node: int  # alternative branch node
    position: int
    kind: str  # "snv" | "indel"
    ref_allele: str
    alt_allele: str


def _align_branches(
    dag: DistributedAssemblyGraph, a: int, b: int, band: int
) -> list[Variant]:
    """Align two branch contigs and emit their differences."""
    ca, cb = dag.assembly.contigs[a], dag.assembly.contigs[b]
    # Reference = the longer branch (ties: lower id).
    if (cb.size, a) > (ca.size, b):
        a, b, ca, cb = b, a, cb, ca
    result = banded_align(ca, cb, band=band)
    # Re-walk the alignment to locate differences.  banded_align counts
    # them; for positions we redo a simple column walk over the global
    # alignment implied by a second banded pass with traceback encoded
    # in (matches, mismatches, gaps) — for reporting we use a direct
    # columnwise comparison when lengths agree, else mark one indel.
    variants: list[Variant] = []
    if ca.size == cb.size:
        diff = np.flatnonzero(ca != cb)
        for pos in diff.tolist():  # noqa: PERF002 - one loop per bubble
            variants.append(
                Variant(
                    anchor=-1,
                    ref_node=a,
                    alt_node=b,
                    position=pos,
                    kind="snv",
                    ref_allele=decode(ca[pos : pos + 1]),
                    alt_allele=decode(cb[pos : pos + 1]),
                )
            )
    else:
        # Length difference: report one indel event plus any mismatch
        # columns the alignment found.
        variants.append(
            Variant(
                anchor=-1,
                ref_node=a,
                alt_node=b,
                position=min(ca.size, cb.size),
                kind="indel",
                ref_allele=f"len{ca.size}",
                alt_allele=f"len{cb.size}",
            )
        )
        if result.mismatches:
            diff = np.flatnonzero(ca[: min(ca.size, cb.size)] != cb[: min(ca.size, cb.size)])
            for pos in diff.tolist():  # noqa: PERF002 - one loop per bubble
                variants.append(
                    Variant(
                        anchor=-1,
                        ref_node=a,
                        alt_node=b,
                        position=pos,
                        kind="snv",
                        ref_allele=decode(ca[pos : pos + 1]),
                        alt_allele=decode(cb[pos : pos + 1]),
                    )
                )
    return variants


def find_bubble_variants(
    dag: DistributedAssemblyGraph,
    nodes: np.ndarray,
    band: int = 8,
    max_variants_per_bubble: int = 20,
) -> list[Variant]:
    """Variants from bubbles anchored at the given nodes.

    The bubbles are bubble popping's own (:func:`parallel_branches`).
    Every pair of branches in a group is aligned once: a bubble is seen
    from both of its ends, and its calls carry the lower anchor.
    Bubbles whose branches differ in more than
    ``max_variants_per_bubble`` positions are discarded as repeats or
    misassemblies rather than alleles.
    """
    v, u, group = parallel_branches(dag, nodes)
    # Pair every branch with the later branches of its group.
    later = np.searchsorted(group, group, side="right") - np.arange(u.size) - 1
    anchor = np.repeat(v, later)
    x = np.repeat(u, later)
    y = u[ragged_positions(np.arange(u.size) + 1, later)]
    a, b = np.minimum(x, y), np.maximum(x, y)
    order = np.lexsort((anchor, b, a))
    anchor, a, b = anchor[order], a[order], b[order]
    first = np.ones(a.size, dtype=bool)
    first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    out: list[Variant] = []
    bubbles = zip(anchor[first].tolist(), a[first].tolist(), b[first].tolist())
    for at, a_id, b_id in bubbles:
        calls = _align_branches(dag, a_id, b_id, band)
        if 0 < len(calls) <= max_variants_per_bubble:
            out.extend(replace(c, anchor=at) for c in calls)
    return out


def variants_kernel(
    dag: DistributedAssemblyGraph,
    part: int,
    band: int = 8,
    max_variants_per_bubble: int = 20,
) -> list[Variant]:
    """Variants from the bubbles anchored in one partition."""
    return find_bubble_variants(
        dag,
        dag.partition_nodes(part),
        band=band,
        max_variants_per_bubble=max_variants_per_bubble,
    )


def variants_merge(
    dag: DistributedAssemblyGraph, proposals, **_params
) -> list[Variant]:
    """Per-partition calls, deduplicated (a bubble spanning partitions
    is seen from both anchors) and sorted."""
    seen: set[tuple] = set()
    merged = []
    for part in proposals:
        for v in part:
            key = (v.ref_node, v.alt_node, v.position, v.kind)
            if key not in seen:
                seen.add(key)
                merged.append(v)
    merged.sort(key=lambda v: (v.ref_node, v.alt_node, v.position))
    return merged


register_stage("variants", variants_kernel, variants_merge)
