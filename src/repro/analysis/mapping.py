"""k-mer placement: the program's one placement join.

:func:`placement_groups` sorts the canonical k-mers of targets and
queries once, so one sort serves both strands, and counts the windows
each query shares with each target per strand and diagonal.  Contig
dedupe runs it in self mode, :func:`place_each` (the QUAST-lite
evaluator, the scaffolder's read placement) in mapping mode.  Alignment
keeps its own join, :class:`~repro.align.kmer_index.KmerIndex`: its
seeds are the ends of maximal matches, not every shared window.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from repro.io.readset import ragged_positions
from repro.sequence.dna import N, hamming_identity, reverse_complement
from repro.sequence.kmers import kmer_codes, stable_sort

__all__ = ["Placement", "place_each", "placement_groups"]

#: bits a packed vote key may use (one non-negative ``int64``).
_KEY_BITS = 63


@dataclass(frozen=True)
class Placement:
    """A verified placement of a query on a reference sequence."""

    reference: int
    position: int
    strand: str
    identity: float
    votes: int


def _count_rows(
    cols: list[np.ndarray], widths: list[int]
) -> tuple[list[np.ndarray], np.ndarray]:
    """The distinct rows of ``cols`` in lexicographic order, as columns,
    and how many times each occurs.

    Column ``j`` holds non-negative values below ``widths[j]``.  When
    the product of the widths fits in :data:`_KEY_BITS` bits the rows
    pack into one ``int64`` for a single ``np.unique``; otherwise a
    ``lexsort`` orders them and the runs are cut where any column
    changes, as :func:`stable_sort` falls back to ``argsort``.
    """
    if prod(widths) <= 1 << _KEY_BITS:
        key = np.zeros(cols[0].size, dtype=np.int64)
        for col, width in zip(cols, widths):
            key *= width
            key += col
        key, counts = np.unique(key, return_counts=True)
        rows = []
        for width in reversed(widths):
            key, col = np.divmod(key, width)
            rows.append(col)
        return rows[::-1], counts
    order = np.lexsort(cols[::-1])
    rows = [col[order] for col in cols]
    repeat = np.zeros(order.size, dtype=bool)
    repeat[1:] = True
    for col in rows:
        repeat[1:] &= col[1:] == col[:-1]
    starts = np.flatnonzero(~repeat)
    return [col[starts] for col in rows], np.diff(np.append(starts, order.size))


def placement_groups(
    seqs: list[np.ndarray], k: int, n_targets: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every query placed on its targets, both strands, by one canonical
    k-mer join over ``seqs``.

    With ``n_targets > 0`` query ``q`` is ``seqs[n_targets + q]`` and
    votes on ``seqs[:n_targets]``; with ``n_targets == 0`` query ``q``
    is ``seqs[q]`` and votes on ``seqs[:q]``.  Returns ``(bounds, ref,
    start, votes)``: the vote groups of query ``q`` on strand ``s`` (0
    is '+', 1 its reverse complement) are ``bounds[2q + s]`` up to
    ``bounds[2q + s + 1]``, each the number of windows shared on the
    diagonal that puts the query strand at ``start`` of ``seqs[ref]``,
    most votes first, then by (ref, start).

    ``k`` must be odd: no k-mer is then its own reverse complement, so
    every window is canonical on exactly one strand.
    """
    if k % 2 == 0:
        raise ValueError(f"placement needs an odd k, got {k}")
    n_queries = len(seqs) - n_targets
    targets = n_targets or len(seqs)
    sizes = np.array([c.size for c in seqs], dtype=np.int64)
    starts = np.cumsum(sizes + 1) - sizes
    sep = np.full(1, N, dtype=np.uint8)
    joined = np.concatenate([sep, *(part for c in seqs for part in (c, sep))])
    # Every window's value and its reverse complement's, from one pass
    # per strand; the canonical k-mer is the smaller of the two.
    fwd = kmer_codes(joined, k)
    rev = kmer_codes(reverse_complement(joined), k)[::-1]
    row = np.flatnonzero(fwd >= 0)
    fwd, rev = fwd[row], rev[row]
    owner = np.searchsorted(starts, row, side="right") - 1
    pos = row - starts[owner]
    flipped = rev < fwd
    canon, order = stable_sort(np.minimum(fwd, rev))
    owner, pos, flipped = owner[order], pos[order], flipped[order]
    # Within a run of one canonical k-mer the rows are in sequence
    # order, so each row's targets are a prefix of its run.  Mapping
    # queries count as one voter, so none votes on another.
    voter = np.minimum(owner, targets)
    idx = np.arange(canon.size)
    new_run = np.ones(canon.size, dtype=bool)
    new_run[1:] = canon[1:] != canon[:-1]
    new_voter = new_run.copy()
    new_voter[1:] |= voter[1:] != voter[:-1]
    run_first = np.maximum.accumulate(np.where(new_run, idx, 0))
    partners = np.maximum.accumulate(np.where(new_voter, idx, 0)) - run_first
    partners[owner < n_targets] = 0
    ref_row = ragged_positions(run_first, partners)
    q_row = np.repeat(idx, partners)
    # One vote per (target row, query row): '+' when both read the
    # canonical k-mer on the same strand, '-' otherwise, with the query
    # position mapped onto its reverse complement.
    query, ref = owner[q_row], owner[ref_row]
    minus = flipped[q_row] != flipped[ref_row]
    q_pos = np.where(minus, sizes[query] - k - pos[q_row], pos[q_row])
    bias = max(int(sizes[n_targets:].max(initial=0)) - k, 0)
    reach = max(int(sizes[:targets].max(initial=0)) - k, 0)
    (slot, ref, diag), votes = _count_rows(
        [(query - n_targets) * 2 + minus, ref, pos[ref_row] - q_pos + bias],
        [2 * n_queries, targets, bias + reach + 1],
    )
    order = np.lexsort((diag, ref, -votes, slot))
    bounds = np.searchsorted(slot[order], np.arange(2 * n_queries + 1))
    return bounds, ref[order], diag[order] - bias, votes[order]


def place_each(
    queries: list[np.ndarray],
    references: list[np.ndarray],
    k: int = 21,
    min_identity: float = 0.9,
    min_votes: int = 2,
) -> list[Placement | None]:
    """Best verified placement of each query on any reference, either
    strand, all through one :func:`placement_groups` call (``k`` odd).

    A strand's candidate is its first vote group: the diagonal with the
    most shared windows, the lowest (reference, start) on a tie.  It
    needs ``min_votes``, to lie inside the reference and to reach
    ``min_identity``; '+' wins an identity tie.
    """
    if not references:
        raise ValueError("need at least one reference sequence")
    refs = [np.asarray(r, dtype=np.uint8) for r in references]
    seqs = [np.asarray(q, dtype=np.uint8) for q in queries]
    bounds, ref, start, votes = placement_groups(refs + seqs, k, len(refs))
    # Each slot's first group, or nothing when the slot has none.
    first = bounds[:-1]
    found = (bounds[1:] > first).tolist()
    ref, start, votes = (np.append(a, 0)[first].tolist() for a in (ref, start, votes))
    out: list[Placement | None] = []
    for i, seq in enumerate(seqs):
        hit: Placement | None = None
        for s, strand in enumerate("+-"):
            slot = 2 * i + s
            if not found[slot] or votes[slot] < min_votes:
                continue
            codes, lo = refs[ref[slot]], start[slot]
            if lo < 0 or lo + seq.size > codes.size:
                continue
            identity = hamming_identity(
                seq if s == 0 else reverse_complement(seq), codes[lo : lo + seq.size]
            )
            if identity >= min_identity and (hit is None or identity > hit.identity):
                hit = Placement(ref[slot], lo, strand, identity, votes[slot])
        out.append(hit)
    return out
