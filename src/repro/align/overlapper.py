"""All-pairs read overlap detection (paper §II-B).

The read set is split into subsets; every unordered pair of subsets is
an independent work unit (this is what Focus farms out to processors).
Within a pair, the reference subset is k-mer indexed, shared k-mers
name (query read, reference read, diagonal) triples, every triple's
diagonal is laid out once and compared base by base — which yields its
k-mer *votes* and its identity together — and the best-voted diagonal
of a read pair becomes an overlap when it is long and similar enough.
Its identity is the ungapped one — the share of equal bases on the
diagonal — which is exact for the simulator's substitution-only error
model.

The votes are counted on the diagonal, not in a hit list.  The index
hands out *seeds*: only the hits at the ends of maximal exact matches
(:mod:`repro.align.kmer_index`).  Every triple that shares a k-mer has
such a hit — the leftmost window of its leftmost match — so any seed
set between those and all hits names the same triples (the tests run
the kernel on an all-hits index to hold it to that), and the kernel
only has to deduplicate them: expand the seed rows, pack ``(query,
ref, diagonal)`` into one ``int64`` key, sort, drop repeats.  The
number of k-mer hits a triple *would* have had is then read off the
compared span: a run of ``m`` agreeing, ``N``-free bases holds
``max(0, m - k + 1)`` shared windows.

Strands are aligned once.  A set built with its reverse complements
(:attr:`~repro.io.readset.ReadSet.mirrored`: ``2n`` reads, read ``i +
n`` the mate of read ``i``) is split and indexed by its ``n`` forward
reads' canonical k-mers.  A seed on the two windows' own strands pairs
the forward reads; one across strands pairs the query with the ref's
mate, verified against the mate's bases.  Each such pair stands for its
mirror, the pair of the two mates, whose row is derived — the same
span read backwards — and :func:`overlap_merge` sorts every row into
the order of the doubled set's subset pairs, so the rows are those of
aligning all ``2n`` reads as plain reads
(``tests/reference/doubled_set.py``).  A set without mates runs the
same detector and keeps the same-strand pairs only.

A work unit never holds all of its seeds or all of its spans: its query
reads are cut into contiguous *stripes* whose seed rows stay under
``_MAX_HITS``, and a stripe's triples are compared in blocks of at most
``_MAX_CELLS`` tile cells.  Every seed of a read pair lies
in the query read's stripe, so stripes need no merge and the result
depends neither on where they are cut nor on the block size.  A subset
aligned against itself takes its seed ranges from the index's own sort
(:meth:`~repro.align.kmer_index.KmerIndex.self_join`) instead of
looking its k-mers up.  The per-query scalar form of the same selection
— expand every hit, count them — lives in
``tests/reference/overlap_loop.py`` as the test oracle.

Parallel alignment is the registered ``overlap`` stage
(:mod:`repro.distributed.stages`): :class:`OverlapSubject` packs the
subset pairs into parts, :func:`overlap_kernel` runs one part's pairs,
:func:`overlap_merge` puts the units back in subset-pair order — so the
serial loop, the simulated cluster and the process pool are the three
execution backends every other stage uses, and return identical rows.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.align.kmer_index import PALINDROME, KmerIndex
from repro.align.overlap import PackedOverlaps
from repro.distributed.stages import register_stage
from repro.faults import FaultPlan, RetryPolicy
from repro.io.readset import ReadSet, ragged_positions
from repro.parallel.backend import ExecutionBackend, create_backend
from repro.parallel.schedule import lpt_assignment, subset_pair_costs
from repro.sequence.dna import N
from repro.sequence.kmers import stable_sort

__all__ = [
    "OverlapConfig",
    "OverlapDetector",
    "OverlapSubject",
    "overlap_backend",
    "overlap_kernel",
    "overlap_merge",
    "subset_pairs",
]

#: most seed rows one stripe of query reads expands at once (a read
#: whose own seeds exceed it is a stripe by itself), and most cells —
#: rows × widest span — one block of the diagonal compare lays out per
#: side (a longer span is a block by itself).  Together they bound the
#: stage's transient memory; the output depends on neither.
_MAX_HITS = 1 << 20
_MAX_CELLS = 1 << 22


def subset_pairs(n_subsets: int) -> list[tuple[int, int]]:
    """All unordered subset pairs, including self-pairs."""
    if n_subsets < 1:
        raise ValueError("n_subsets must be >= 1")
    return [(i, j) for i in range(n_subsets) for j in range(i, n_subsets)]


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Position of the first element of every run of equal neighbours."""
    first = np.ones(values.size, dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return np.flatnonzero(first)


def _best(score: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Position of the highest score of each run (``starts``); a run's
    scores are distinct."""
    best = np.maximum.reduceat(score, starts)
    return np.flatnonzero(score == np.repeat(best, np.diff(starts, append=score.size)))


def _diagonal_tile(codes: np.ndarray, first: np.ndarray, width: int) -> np.ndarray:
    """``codes[first[i] : first[i] + width]`` of every row ``i`` as one
    ``(rows, width)`` tile: a row gather of ``codes``' sliding windows,
    no per-base index.  A row running off the end reads a zero-padded
    copy of the last ``width`` bases (the caller masks past its span).
    """
    safe = codes.size - width
    tile = sliding_window_view(codes, width)[np.minimum(first, safe)]
    over = np.flatnonzero(first > safe)
    tail = np.concatenate([codes[safe:], np.zeros(width, codes.dtype)])
    tile[over] = sliding_window_view(tail, width)[first[over] - safe]
    return tile


@dataclass(frozen=True)
class OverlapConfig:
    """Thresholds of the alignment stage.

    Defaults mirror the paper's evaluation settings: minimum overlap
    length 50 bp and minimum identity 90%.
    """

    k: int = 16
    min_kmer_hits: int = 3
    min_overlap: int = 50
    min_identity: float = 0.90
    #: work units of the ``overlap`` stage: the reads are split into
    #: this many subsets and every subset pair is one unit.  Not a
    #: memory knob — a unit's memory is bounded by the stripe budget.
    n_subsets: int = 1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.min_kmer_hits < 1:
            raise ValueError("min_kmer_hits must be positive")
        if self.min_overlap < 1:
            raise ValueError("min_overlap must be positive")
        if not 0.0 <= self.min_identity <= 1.0:
            raise ValueError("min_identity must be in [0, 1]")
        if self.n_subsets < 1:
            raise ValueError("n_subsets must be >= 1")


class OverlapDetector:
    """Finds all pairwise overlaps in a ReadSet."""

    def __init__(self, config: OverlapConfig | None = None) -> None:
        self.config = config or OverlapConfig()
        #: candidates sent to verification by the most recent
        #: :meth:`find_overlaps` call.
        self.last_candidates = 0

    # -- one work unit ----------------------------------------------------

    def _unit_seeds(
        self,
        reads: ReadSet,
        query_indices: np.ndarray,
        same_subset: bool,
        index: KmerIndex,
    ) -> tuple[np.ndarray, ...]:
        """A work unit's seeds, as ranges of index rows per query window.

        ``(win_reads, win_offsets, win_strands, lo, counts, row_reads,
        row_offsets, row_strands)``: entry ``i`` pairs the query window
        at ``(win_reads[i], win_offsets[i])`` with rows ``lo[i] ..
        lo[i] + counts[i]`` of the three row tables; entries come in
        ``query_indices`` order, one read's adjacent.  The index
        answers with seeds only — off its own sort for a subset against
        itself (which needs that sort's read order to be query order),
        by search otherwise.
        """
        if (
            same_subset
            and np.array_equal(query_indices, index.read_indices)
            and bool((query_indices[1:] > query_indices[:-1]).all())
        ):
            return index.self_join()
        vals, win_reads, win_offsets = reads.kmer_table(self.config.k, query_indices)
        windows, *ranges = index.seed_ranges(vals, win_offsets)
        return (win_reads[windows], win_offsets[windows], *ranges)

    def _stripe_triples(
        self,
        seeds: tuple[np.ndarray, ...],
        stripe: slice,
        same_subset: bool,
        reads: ReadSet,
        diag_lo: int,
        n_diags: int,
    ) -> np.ndarray:
        """The distinct (query, ref, diagonal) of one stripe of seeds.

        The row ranges of the :meth:`_unit_seeds` entries in ``stripe``
        are expanded, each row packed with its query window into one
        ``(query * 2n + ref) * n_diags + diagonal - diag_lo`` key, and
        the keys sorted and deduplicated — a triple has a seed at each
        end of every maximal exact match on its diagonal.  A row on the
        query window's strand pairs the two forward reads; one on the
        other strand pairs the query with the ref's mate ``ref + n``,
        whose window at ``len - k - offset`` it is — and only in a set
        that holds the mates.  Each unordered read pair is kept once in
        a subset against itself: the ref is the larger forward read, or
        the larger read's mate.
        """
        win_reads, win_offsets, win_strands, lo, counts, row_reads, row_offsets, row_strands = seeds
        counts = counts[stripe]
        rows = ragged_positions(lo[stripe], counts)
        q = np.repeat(win_reads[stripe], counts)
        r = row_reads[rows]
        diag = np.repeat(win_offsets[stripe] - diag_lo, counts)
        p = row_offsets[rows]
        strands = np.repeat(win_strands[stripe], counts)
        mate = strands != row_strands[rows]
        keep = (r > q) if same_subset else (r != q)
        if not reads.mirrored:
            key = self._keys(q, r, diag, p, None, reads, n_diags)[keep & ~mate]
        else:
            # A palindrome is on both strands: its rows pair once more, as mates.
            pal = np.flatnonzero(strands == PALINDROME)
            both = self._keys(q[pal], r[pal], diag[pal], p[pal], True, reads, n_diags)
            if same_subset:
                both = both[r[pal] >= q[pal]]
                keep |= mate & (r == q)
            else:
                keep |= mate
            key = np.concatenate([self._keys(q, r, diag, p, mate, reads, n_diags)[keep], both])
        key.sort()
        return key[_run_starts(key)]

    def _keys(
        self,
        q: np.ndarray,
        r: np.ndarray,
        diag: np.ndarray,
        p: np.ndarray,
        mate: np.ndarray | bool | None,
        reads: ReadSet,
        n_diags: int,
    ) -> np.ndarray:
        """``(query * 2n + ref) * n_diags + diagonal - diag_lo`` of seed
        rows at ref offsets ``p``, ``diag`` holding ``offset - diag_lo``
        (and overwritten); a ``mate`` row pairs with the ref's mate
        (``None``: no row does)."""
        n = reads.n_forward
        if mate is None:
            diag -= p
        else:
            diag += np.where(mate, p + (self.config.k - reads.lengths[r]), -p)
        key = q * (2 * n)
        key += r
        if mate is not None:
            key += np.multiply(mate, n)
        key *= n_diags
        key += diag
        return key

    def _diagonal_votes(
        self,
        reads: ReadSet,
        cand_q: np.ndarray,
        cand_r: np.ndarray,
        q_start: np.ndarray,
        r_start: np.ndarray,
        length: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(votes, matches)`` of many diagonal spans, from the bases.

        Span ``i`` lays ``length[i]`` bases of read ``cand_q[i]`` from
        ``q_start[i]`` against read ``cand_r[i]`` from ``r_start[i]``.
        ``matches`` counts its equal positions (``N == N`` is one);
        ``votes`` its shared k-mer windows — the offsets at which ``k``
        consecutive bases agree and none is ``N`` — which is what
        counting the span's k-mer hits would give: a run of ``m``
        agreeing bases between two disagreements holds ``max(0, m - k +
        1)`` of them.  Each block of consecutive spans (``_MAX_CELLS``)
        fetches its reads once (:meth:`ReadSet.gather_reads`), compares
        two tiles (:func:`_diagonal_tile`) and revisits only bad cells.
        """
        k = self.config.k
        votes = np.maximum(length - (k - 1), 0)
        matches = length.copy()
        b = 0
        while b < length.size:
            # rows × running-max span only grows, and fits no more rows
            # than the budget over the first span: one search cuts.
            ahead = length[b : b + max(1, _MAX_CELLS // int(length[b]))]
            cells = np.maximum.accumulate(ahead) * np.arange(1, ahead.size + 1)
            e = b + max(1, int(np.searchsorted(cells, _MAX_CELLS, side="right")))
            span = length[b:e]
            width = int(span.max())
            codes, starts, _ = reads.gather_reads(np.concatenate([cand_q[b:e], cand_r[b:e]]))
            cq = _diagonal_tile(codes, starts[: e - b] + q_start[b:e], width)
            cr = _diagonal_tile(codes, starts[e - b :] + r_start[b:e], width)
            # a mismatch or an N inside the span: ~4 B a cell alive.
            bad = cq != cr
            bad |= cq >= N
            narrow = np.min_scalar_type(width)
            bad &= np.arange(width, dtype=narrow) < span.astype(narrow)[:, None]
            bad = np.flatnonzero(bad)
            if bad.size:
                seg, rel = np.divmod(bad, width)
                new_seg = np.ones(bad.size, dtype=bool)
                np.not_equal(seg[1:], seg[:-1], out=new_seg[1:])
                # agreeing bases before each bad position, back to the
                # previous one (or the span's start) ...
                run = rel.copy()
                run[1:] -= np.where(new_seg[1:], 0, rel[:-1] + 1)
                gain = np.maximum(run - (k - 1), 0)
                # ... and after a span's last one, up to its end.
                last = np.flatnonzero(np.append(new_seg[1:], True))
                gain[last] += np.maximum(span[seg[last]] - rel[last] - k, 0)
                first = np.flatnonzero(new_seg)
                votes[b + seg[first]] = np.add.reduceat(gain, first)
                matches[b:e] -= np.bincount(seg[cq.take(bad) != cr.take(bad)], minlength=e - b)
            b = e
        return votes, matches

    def _verified(
        self,
        cand_q: np.ndarray,
        cand_r: np.ndarray,
        q_start: np.ndarray,
        r_start: np.ndarray,
        length: np.ndarray,
        matches: np.ndarray,
        lengths: np.ndarray,
    ) -> PackedOverlaps:
        """The rows of the candidate spans that are long and similar
        enough, with their kinds."""
        cfg = self.config
        keep = np.flatnonzero(length >= cfg.min_overlap)
        identity = matches[keep] / length[keep]
        accepted = identity >= cfg.min_identity
        keep, identity = keep[accepted], identity[accepted]
        cand_q, cand_r, length = cand_q[keep], cand_r[keep], length[keep]
        q_start, r_start = q_start[keep], r_start[keep]

        # The kind, as an index into KIND_NAMES; a later rule wins.
        q_full = (q_start == 0) & (length == lengths[cand_q])
        r_full = (r_start == 0) & (length == lengths[cand_r])
        kind_code = np.full(length.size, 4, dtype=np.uint8)  # query_right
        kind_code[q_start > 0] = 3  # query_left
        kind_code[r_full] = 2  # ref_contained
        kind_code[q_full] = 1  # query_contained
        kind_code[q_full & r_full] = 0  # equal
        return PackedOverlaps(
            query=cand_q,
            ref=cand_r,
            q_start=q_start,
            r_start=r_start,
            length=length,
            identity=identity,
            kind_code=kind_code,
        )

    def _stripe_overlaps(
        self,
        reads: ReadSet,
        key: np.ndarray,
        diag_lo: int,
        n_diags: int,
    ) -> tuple[PackedOverlaps, int]:
        """(overlaps, candidates) of one stripe's ``_stripe_triples``.

        Every triple's span — from ``max(d, 0)`` on the query and
        ``max(-d, 0)`` on the reference, to the end of the shorter
        remainder — is voted on and measured by one
        :meth:`_diagonal_votes` pass; a triple needs ``min_kmer_hits``
        votes, and only the best-supported diagonal per read pair
        survives, ties resolved toward the larger diagonal.

        In a set that holds the mates, each pair also stands for its
        mirror, the pair of the two mates, which picks its diagonal in
        its own coordinates.  The mirror of two forward reads maps ``d``
        to ``len_q - len_r - d``, which reverses the tie order, so it
        takes the smallest of the tied diagonals here; the mirror of a
        read and a mate, ``(ref - n, query + n)``, keeps the order; a
        read and its own mate are their own mirror.  Every triple picked
        is a candidate (counted once) and becomes an overlap when its
        span is long enough and similar enough.  The pairs' rows come
        back in ``(query, ref)`` order, their mirrors' after them.
        """
        cfg = self.config
        n = reads.n_forward
        pair, diag = np.divmod(key, n_diags)
        cand_q, cand_r = np.divmod(pair, 2 * n)
        lengths = reads.lengths
        d = diag + diag_lo
        q_start = np.maximum(d, 0)
        r_start = np.maximum(-d, 0)
        length = np.minimum(lengths[cand_q] - q_start, lengths[cand_r] - r_start)
        votes, matches = self._diagonal_votes(reads, cand_q, cand_r, q_start, r_start, length)

        strong = np.flatnonzero(votes >= cfg.min_kmer_hits)
        if strong.size == 0:
            return PackedOverlaps.empty(), 0
        starts = _run_starts(pair[strong])
        votes = votes[strong] * n_diags
        chosen = strong[_best(votes + diag[strong], starts)]
        n_candidates = chosen.size
        spans = (cand_q, cand_r, q_start, r_start, length, matches)
        rows = [self._verified(*(column[chosen] for column in spans), lengths)]
        if reads.mirrored:
            lowest = strong[_best(votes + (n_diags - 1 - diag[strong]), starts)]
            has_mirror = cand_r[chosen] != cand_q[chosen] + n
            mirror = np.where(cand_r[chosen] < n, lowest, chosen)[has_mirror]
            n_candidates += int(np.count_nonzero(mirror != chosen[has_mirror]))
            a, c, d = cand_q[mirror], cand_r[mirror], d[mirror]
            forward = c < n
            shift = lengths[a] - lengths[c]
            d = np.where(forward, shift - d, d - shift)
            query, ref = np.where(forward, a + n, c - n), np.where(forward, c, a) + n
            spans = (query, ref, np.maximum(d, 0), np.maximum(-d, 0), length[mirror], matches[mirror])
            rows.append(self._verified(*spans, lengths))
        return PackedOverlaps.concatenate(rows), n_candidates

    def overlap_subset_pair_packed(
        self,
        reads: ReadSet,
        query_indices: np.ndarray,
        ref_indices: np.ndarray,
        same_subset: bool,
        index: KmerIndex | None = None,
        max_hits: int = _MAX_HITS,
    ) -> tuple[PackedOverlaps, int]:
        """One work unit in columnar form: (packed overlaps, candidates).

        ``query_indices`` and ``ref_indices`` are forward reads (below
        :attr:`~repro.io.readset.ReadSet.n_forward`); in a set that
        holds the mates the unit also emits every pair with a mate.
        ``index`` optionally supplies a prebuilt reference-subset index
        so a kernel that touches one subset in several work units builds
        it only once.
        ``max_hits`` is the stripe budget in seed rows (tests force it
        small; the result does not depend on it).
        """
        query_indices = np.asarray(query_indices, dtype=np.int64)
        if index is None:
            index = KmerIndex(reads, self.config.k, ref_indices)
        if max(query_indices.max(initial=-1), index.read_indices.max(initial=-1)) >= reads.n_forward:
            raise ValueError("a unit aligns forward reads: a mate is aligned with its read")
        seeds = self._unit_seeds(reads, query_indices, same_subset, index)
        win_reads, counts = seeds[0], seeds[4]
        if not counts.any():
            return PackedOverlaps.empty(), 0
        # Same-strand diagonals are ``o - p``, mate ones ``o + p + k -
        # len_ref``: both within one read's span of windows either way.
        span = int(reads.lengths.max()) - self.config.k
        diag_lo, n_diags = -span, 2 * span + 1
        if 2 * reads.n_forward**2 * n_diags >= 1 << 63:
            raise OverflowError("(query, ref, diagonal) does not fit one int64 key")
        # First entry of every query read, and the seed rows before it.
        bounds = np.append(_run_starts(win_reads), win_reads.size)
        rows_before = np.zeros(bounds.size, dtype=np.int64)
        np.cumsum(np.add.reduceat(counts, bounds[:-1]), out=rows_before[1:])
        chunks: list[PackedOverlaps] = []
        n_candidates = 0
        b = 0
        while b < bounds.size - 1:
            limit = rows_before[b] + max_hits
            e = max(b + 1, int(np.searchsorted(rows_before, limit, side="right")) - 1)
            key = self._stripe_triples(
                seeds, slice(bounds[b], bounds[e]), same_subset, reads, diag_lo, n_diags
            )
            b = e
            if key.size:
                packed, n = self._stripe_overlaps(reads, key, diag_lo, n_diags)
                chunks.append(packed)
                n_candidates += n
        return PackedOverlaps.concatenate(chunks), n_candidates

    # -- public API ---------------------------------------------------------

    def find_overlaps(self, reads: ReadSet, n_workers: int = 1) -> PackedOverlaps:
        """All pairwise overlaps of a ReadSet, as columns.

        The ``overlap`` stage on the in-process loop, or —
        ``n_workers > 1`` — on that many OS processes; rows are
        identical either way, in subset pair, then ``(query, ref)``
        order.
        """
        with overlap_backend(reads, self.config, n_workers) as backend:
            packed, self.last_candidates = backend.run_stage("overlap").result
        return packed

    # Kept only for the benchmark's frozen replay; ROADMAP 13b deletes it.
    find_overlaps_processes = find_overlaps


class OverlapSubject:
    """Alignment as a partitioned stage subject (docs/architecture.md).

    The reads are split into ``config.n_subsets`` subsets, every subset
    pair is a work unit, and the units are LPT-packed by estimated cost
    into at most ``n_parts`` parts — one kernel call each.  Nothing
    here is mutable, so ``state`` is empty.
    """

    state: tuple = ()

    def __init__(self, reads: ReadSet, config: OverlapConfig, n_parts: int = 1) -> None:
        self.reads = reads
        self.config = config
        #: the forward reads in ``n_subsets`` contiguous chunks (a
        #: read's mate is aligned with it).
        self.subsets = np.array_split(np.arange(reads.n_forward, dtype=np.int64), config.n_subsets)
        self.pairs = subset_pairs(len(self.subsets))
        self.unit_costs = subset_pair_costs(
            self.pairs, np.array([s.size for s in self.subsets])
        )
        self.n_parts = max(1, min(n_parts, len(self.pairs)))
        #: part that runs each unit of ``pairs``.
        self.owner = lpt_assignment(self.unit_costs, self.n_parts)

    def partition_costs(self) -> np.ndarray:
        """Estimated kernel cost per part: the sum of its units' costs."""
        return np.bincount(self.owner, weights=self.unit_costs, minlength=self.n_parts)

    def worker_view(self) -> "OverlapSubject":
        """A worker's own view: a shard-backed ReadSet is re-opened by
        store path, so the worker reads shards through its own cold
        cache instead of retaining the parent's mapped arrays or cache
        contents inherited over ``fork`` — worker RSS stays O(cache
        budget)."""
        if not hasattr(self.reads, "reopen"):
            return self
        return OverlapSubject(self.reads.reopen(), self.config, self.n_parts)


def overlap_kernel(subject: OverlapSubject, part: int) -> list[tuple]:
    """``(unit, overlap columns, candidates)`` of each pair packed into ``part``.

    Reference-subset indexes are built once and reused across the
    part's units that share them (on one part, subset ``j`` serves
    ``j + 1`` pairs).
    """
    detector = OverlapDetector(subject.config)
    reads, subsets = subject.reads, subject.subsets
    ref_indexes: dict[int, KmerIndex] = {}
    units = []
    for unit, (i, j) in enumerate(subject.pairs):
        if subject.owner[unit] != part:
            continue
        index = ref_indexes.get(j)
        if index is None:
            index = ref_indexes[j] = KmerIndex(reads, subject.config.k, subsets[j])
        packed, n_candidates = detector.overlap_subset_pair_packed(
            reads, subsets[i], subsets[j], same_subset=(i == j), index=index
        )
        units.append((unit, packed, n_candidates))
    return units


def overlap_merge(subject: OverlapSubject, proposals) -> tuple[PackedOverlaps, int]:
    """(overlap columns in subset-pair order, candidates verified).

    The order is that of the whole set cut into ``n_subsets`` subsets
    (:meth:`~repro.io.readset.ReadSet.split`): rows by the subsets of
    query and ref, then by ``(query, ref)``.  Without mates the units
    are those subset pairs and come back in it; with them a unit's
    mirrors belong to other subset pairs, so the rows are sorted into
    it.
    """
    units = sorted((u for part in proposals for u in part), key=lambda u: u[0])
    packed = PackedOverlaps.concatenate([columns for _, columns, _ in units])
    n_candidates = sum(n for _, _, n in units)
    reads = subject.reads
    if not reads.mirrored or len(packed) == 0:
        return packed, n_candidates
    n_reads, n_subsets = len(reads), len(subject.subsets)
    firsts = np.cumsum([s.size for s in reads.split(n_subsets)])[:-1]
    sub_q = np.searchsorted(firsts, packed.query, side="right")
    sub_r = np.searchsorted(firsts, packed.ref, side="right")
    key = ((sub_q * n_subsets + sub_r) * n_reads + packed.query) * n_reads + packed.ref
    order = stable_sort(key)[1]
    return PackedOverlaps(*(getattr(packed, f.name)[order] for f in fields(PackedOverlaps))), n_candidates


register_stage("overlap", overlap_kernel, overlap_merge)


def overlap_backend(
    reads: ReadSet,
    config: OverlapConfig,
    n_workers: int = 1,
    retry: RetryPolicy | None = None,
    fault_plan: FaultPlan | None = None,
) -> ExecutionBackend:
    """The execution backend of one alignment run over ``reads``.

    ``n_workers > 1`` asks for the process pool with the subset pairs
    packed into ``min(n_workers, pairs)`` parts (one part ⇒ the backend
    runs its serial loop and spawns nothing); otherwise the in-process
    loop over one part, which has no worker for ``fault_plan`` to fire
    in and so ignores it.  A part's runtime grows with the input, so the
    per-task deadline — sized for graph kernels — is lifted rather than
    kill healthy workers on a large read set.
    """
    pool = n_workers > 1
    return create_backend(
        "process" if pool else "serial",
        OverlapSubject(reads, config, n_workers),
        workers=n_workers,
        retry=replace(retry or RetryPolicy(), task_deadline=None),
        fault_plan=fault_plan if pool else None,
    )
