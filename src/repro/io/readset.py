"""ReadSet: a columnar container for many reads.

Reads are stored as one concatenated ``uint8`` code array plus an
``int64`` offsets array (CSR-style ragged layout), which keeps the
memory footprint flat and lets alignment kernels slice views instead of
copying per-read arrays.

The same layout powers the per-set **k-mer code cache**: packing the
whole concatenated code array once per k yields every read's k-mer
values as slices of a single array (windows that straddle a read
boundary exist in the cache but are never exposed), so the alignment
index build, the query path, and the correction spectrum all share one
packing pass instead of re-packing per read per consumer.  The cache
costs 8 bytes per base per (k, canonical) combination — see
docs/performance.md for the trade-off.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from itertools import chain

import numpy as np

from repro.io.records import Read
from repro.sequence.dna import complement, decode
from repro.sequence.kmers import canonical_kmer_codes, kmer_codes
from repro.sequence.quality import trim_spans

__all__ = [
    "ReadSet",
    "ragged_positions",
    "read_columns",
    "trim_columns",
    "rc_columns",
    "rc_bases",
    "rc_labels",
]

#: a ragged block of reads as columns ``(data, offsets, quals, ids,
#: meta)``: concatenated codes, CSR offsets, flat scores or ``None``,
#: and one id and one meta dict per read.
Columns = tuple[np.ndarray, np.ndarray, np.ndarray | None, list, list]


def ragged_positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``[starts[i], starts[i]+counts[i])`` ranges.

    The standard vectorized replacement for ``for s, c in zip(...):
    out.extend(range(s, s+c))`` — one flat int64 index array.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    block = np.cumsum(counts) - counts
    return np.repeat(starts - block, counts) + np.arange(total, dtype=np.int64)


def read_columns(reads: list[Read]) -> Columns:
    """The column block of a list of reads; once any read carries
    scores, a read without them scores zero."""
    lengths = np.fromiter((len(r) for r in reads), dtype=np.int64, count=len(reads))
    offsets = np.zeros(len(reads) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    data = np.empty(int(offsets[-1]), dtype=np.uint8)
    quals = None
    if any(r.quals is not None for r in reads):
        quals = np.zeros(data.size, dtype=np.int64)
    for r, lo, hi in zip(reads, offsets[:-1].tolist(), offsets[1:].tolist()):
        data[lo:hi] = r.codes
        if r.quals is not None:
            quals[lo:hi] = r.quals
    return data, offsets, quals, [r.id for r in reads], [r.meta for r in reads]


def trim_columns(
    data, offsets, quals, ids, meta, min_length: int = 1, **rule
) -> Columns:
    """The Focus trimming rule on a block; reads under ``min_length`` go.

    ``rule`` is :func:`~repro.sequence.quality.trim_spans`'s keywords
    (``trim_read``'s, which it equals read by read).
    """
    lo, hi = trim_spans(offsets, quals, **rule)
    kept = np.flatnonzero(hi - lo >= min_length)
    sizes = (hi - lo)[kept]
    at = ragged_positions(lo[kept], sizes)
    trimmed = np.zeros(kept.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=trimmed[1:])
    kept = kept.tolist()
    return (
        data[at],
        trimmed,
        None if quals is None else quals[at],
        [ids[i] for i in kept],
        [meta[i] for i in kept],
    )


def rc_columns(data, offsets, quals, ids, meta) -> Columns:
    """:meth:`Read.reverse_complement` of every read of a block: one
    mirrored gather per column; ids gain ``/rc``, meta ``rc_of``."""
    return (*rc_bases(data, offsets, quals), *rc_labels(ids, meta))


def rc_bases(data, offsets, quals) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The ``(data, offsets, quals)`` half of :func:`rc_columns`."""
    offsets = np.asarray(offsets, dtype=np.int64)
    last = offsets[:-1] + offsets[1:] - 1
    mirror = np.repeat(last, np.diff(offsets)) - np.arange(data.size, dtype=np.int64)
    return complement(data[mirror]), offsets, None if quals is None else quals[mirror]


def rc_labels(ids, meta) -> tuple[list, list]:
    """The ``(ids, meta)`` half of :func:`rc_columns`."""
    return [i + "/rc" for i in ids], [{**m, "rc_of": i} for i, m in zip(ids, meta)]


class ReadSet:
    """An ordered collection of reads with columnar storage.

    Construct with :meth:`from_reads` (or ``ReadSet(reads)``); the
    container is immutable after construction — preprocessing steps
    return new ReadSets.
    """

    #: whether the second half of the set is the first half's reverse
    #: complements, read ``i + n`` the mate of read ``i``
    #: (:meth:`with_reverse_complements`).
    mirrored = False

    def __init__(self, reads: Iterable[Read] = ()) -> None:
        self._set_columns(*read_columns(list(reads)))

    def _set_columns(self, data, offsets, quals, ids: list[str], meta: list[dict]) -> None:
        self.data, self.offsets, self.quals = data, offsets, quals
        self.ids, self.meta = ids, meta
        #: whether the set carries Phred scores at all.
        self.has_quals = quals is not None
        #: packed k-mer values of a prefix of ``data``, keyed (k,
        #: canonical); lazy (:meth:`_packed_prefix`).
        self._kmer_cache: dict[tuple[int, bool], np.ndarray] = {}

    def __getstate__(self) -> dict:
        # The k-mer cache is derived data and can be large (8 bytes per
        # base per entry): drop it so pickling a ReadSet — e.g. shipping
        # it to ProcessPoolExecutor workers — stays cheap.  Workers
        # rebuild it lazily on first use.
        state = self.__dict__.copy()
        state["_kmer_cache"] = {}
        return state

    # -- construction ---------------------------------------------------

    @classmethod
    def from_reads(cls, reads: Iterable[Read]) -> "ReadSet":
        return cls(reads)

    @classmethod
    def _from_columns(cls, *columns) -> "ReadSet":
        """A set over a ready-made column block (taken, not copied)."""
        self = cls.__new__(cls)
        self._set_columns(*columns)
        return self

    @classmethod
    def from_strings(cls, seqs: Sequence[str], prefix: str = "r") -> "ReadSet":
        """Convenience constructor for tests: numbered reads from strings."""
        return cls(Read.from_string(f"{prefix}{i}", s) for i, s in enumerate(seqs))

    @classmethod
    def open(cls, path, cache_budget: int | None = None) -> "ReadSet":
        """Open a sharded reads store as a lazy, shard-backed ReadSet.

        The returned set streams base codes, qualities, and packed
        k-mers one shard at a time through an LRU cache bounded by
        ``cache_budget`` bytes (default: the store layer's 64 MiB), so
        peak memory is O(shard), not O(reads).  Build the store with
        ``repro pack`` or :func:`repro.store.pack_reads`.
        """
        from repro.store.reads import ShardedReadSet
        from repro.store.sharded import DEFAULT_CACHE_BUDGET

        budget = DEFAULT_CACHE_BUDGET if cache_budget is None else int(cache_budget)
        return ShardedReadSet(path, cache_budget=budget)

    # -- basic protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Read]:
        for i in range(len(self)):
            yield self[i]

    def __getitem__(self, i: int) -> Read:
        if not -len(self) <= i < len(self):
            raise IndexError(i)
        i = i % len(self) if len(self) else i
        return Read(self.ids[i], self.codes_of(i).copy(), self.quals_of(i), self.meta[i])

    def codes_of(self, i: int) -> np.ndarray:
        """Zero-copy view of read ``i``'s base codes."""
        return self.data[self.offsets[i] : self.offsets[i + 1]]

    def quals_of(self, i: int) -> np.ndarray | None:
        if self.quals is None:
            return None
        return self.quals[self.offsets[i] : self.offsets[i + 1]].copy()

    def sequence_of(self, i: int) -> str:
        return decode(self.codes_of(i))

    def length_of(self, i: int) -> int:
        return int(self.offsets[i + 1] - self.offsets[i])

    @cached_property
    def lengths(self) -> np.ndarray:
        """Bases per read (read-only; the container is immutable)."""
        lengths = np.diff(self.offsets)
        lengths.setflags(write=False)
        return lengths

    @property
    def n_forward(self) -> int:
        """Reads in front of the mates: half the set when it is
        :attr:`mirrored`, else all of it."""
        return len(self) // 2 if self.mirrored else len(self)

    @property
    def total_bases(self) -> int:
        return int(self.offsets[-1])

    # -- block access -----------------------------------------------------
    # The one bulk read primitive: consensus, overlap verification and
    # preprocessing all take their bases through it, so the shard-backed
    # subclass can serve a whole request with one visit per shard.

    def gather_reads(
        self, indices: np.ndarray, quals: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The reads at ``indices`` as one ragged block.

        Returns ``(codes, starts, scores)``: request ``j``'s bases are
        ``codes[starts[j] : starts[j] + lengths[indices[j]]]`` and its
        Phred scores the same span of ``scores`` (``None`` unless
        ``quals`` is asked for and the set has any).  In RAM the block
        is the set's own arrays — nothing is copied, so it must not be
        written to.
        """
        starts = self.offsets[np.asarray(indices, dtype=np.int64)]
        return self.data, starts, self.quals if quals else None

    # -- k-mer code cache -------------------------------------------------

    def packed_kmers(self, k: int, canonical: bool = False) -> np.ndarray:
        """Packed k-mer values of the whole concatenated code array.

        Computed once per ``(k, canonical)`` and cached (read-only view;
        the container is immutable).  Entry ``p`` is the window starting
        at absolute position ``p`` of :attr:`data`; windows that straddle
        a read boundary are present but meaningless — callers must slice
        through :meth:`kmer_codes_of` / :meth:`kmer_table`, which never
        expose them.
        """
        return self._packed_prefix(k, canonical, self.total_bases)

    def _packed_prefix(self, k: int, canonical: bool, stop: int) -> np.ndarray:
        """Packed k-mer values of at least ``data[:stop]``: the cached
        entry if it reaches ``stop``, else that prefix packed in its place."""
        key = (int(k), bool(canonical))
        cached = self._kmer_cache.get(key)
        if cached is None or cached.size < stop - k + 1:
            packer = canonical_kmer_codes if canonical else kmer_codes
            cached = packer(self.data[:stop], k)
            cached.setflags(write=False)
            self._kmer_cache[key] = cached
        return cached

    def kmer_codes_of(self, i: int, k: int, canonical: bool = False) -> np.ndarray:
        """Packed k-mer values of read ``i`` (cache-backed view).

        Equal to ``kmer_codes(self.codes_of(i), k)`` (length
        ``len_i - k + 1``, invalid windows -1) but computed via the
        per-set cache, so repeated callers never re-pack the read.
        """
        lo = int(self.offsets[i])
        hi = int(self.offsets[i + 1]) - k + 1
        if hi <= lo:
            return np.empty(0, dtype=np.int64)
        return self.packed_kmers(k, canonical)[lo:hi]

    def kmer_table(
        self,
        k: int,
        read_indices: np.ndarray | None = None,
        canonical: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All k-mer windows of the given reads in one flat table.

        Returns parallel ``int64`` arrays ``(values, read_ids,
        offsets)``: the packed value of every window (invalid windows
        -1), the read it belongs to, and its offset within that read —
        reads in ``read_indices`` order, windows in position order.
        This is the bulk primitive behind the k-mer index build and the
        query side of a cross-subset work unit; no per-read Python loop.
        """
        if read_indices is None:
            idx = np.arange(len(self), dtype=np.int64)
        else:
            idx = np.asarray(read_indices, dtype=np.int64)
        starts = np.asarray(self.offsets[idx], dtype=np.int64)
        ends = np.asarray(self.offsets[idx + 1], dtype=np.int64)
        n_windows = np.maximum(ends - starts - k + 1, 0)
        total = int(n_windows.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        read_ids = np.repeat(idx, n_windows)
        group_starts = np.cumsum(n_windows) - n_windows
        within = np.arange(total, dtype=np.int64) - np.repeat(group_starts, n_windows)
        flat = np.repeat(starts, n_windows) + within
        return self._window_kmers(k, canonical, flat, idx, n_windows), read_ids, within

    def _window_kmers(
        self, k: int, canonical: bool, flat: np.ndarray, idx: np.ndarray, n_windows: np.ndarray
    ) -> np.ndarray:
        """Packed values at absolute base positions ``flat``: the windows
        of reads ``idx``, ``n_windows`` of them per read.  Alignment asks
        a set with mates for its forward reads only, so only their bases
        are packed until a mate's window is asked for."""
        stop = self.total_bases
        if self.mirrored and idx.size and int(idx.max()) < self.n_forward:
            stop = int(self.offsets[self.n_forward])
        return self._packed_prefix(k, canonical, stop)[flat]

    # -- preprocessing ---------------------------------------------------
    # Both steps map a column kernel over the set's blocks — the whole
    # set here, one shard at a time on a store — and :meth:`_rebuilt`
    # makes a set of the results.

    def _blocks(self) -> Iterator[Columns]:
        yield self.data, self.offsets, self.quals, self.ids, self.meta

    def _rebuilt(self, tag: str, params: dict, blocks: Iterable[Columns]) -> "ReadSet":
        """A new set holding ``blocks`` in order (``tag`` and ``params``
        name the step, for sets that keep what they derive)."""
        data, offsets, quals, ids, meta = zip(*blocks)
        joined = np.zeros(sum(len(block) for block in ids) + 1, dtype=np.int64)
        np.cumsum(np.concatenate([np.diff(o) for o in offsets]), out=joined[1:])
        return ReadSet._from_columns(
            np.concatenate(data),
            joined,
            np.concatenate(quals) if self.has_quals else None,
            [i for block in ids for i in block],
            [m for block in meta for m in block],
        )

    def trimmed(
        self,
        trim5: int = 0,
        trim3: int = 0,
        window: int = 10,
        step: int = 1,
        min_quality: float = 20.0,
        min_length: int = 1,
    ) -> "ReadSet":
        """Apply the Focus trimming rule to every read; drop short reads."""
        rule = {
            "trim5": trim5,
            "trim3": trim3,
            "window": window,
            "step": step,
            "min_quality": min_quality,
            "min_length": min_length,
        }
        trimmed = (trim_columns(*block, **rule) for block in self._blocks())
        return self._rebuilt("trim", rule, trimmed)

    def with_reverse_complements(self) -> "ReadSet":
        """Append the reverse complement of every read (paper §II-A).

        The forward read ``i`` and its reverse complement ``i + n`` are
        paired; :meth:`mate_of` maps between them.
        """
        if self.mirrored:
            raise ValueError("the read set already holds its reverse complements")
        mates = (rc_columns(*block) for block in self._blocks())
        both = self._rebuilt("rc", {}, chain(self._blocks(), mates))
        both.mirrored = True
        return both

    def mate_of(self, i: int) -> int:
        """Index of read ``i``'s reverse complement in an rc-augmented set."""
        n = len(self)
        if n % 2 != 0:
            raise ValueError("read set was not built with with_reverse_complements()")
        half = n // 2
        return i + half if i < half else i - half

    def split(self, n_subsets: int) -> list[np.ndarray]:
        """Split read indices into ``n_subsets`` contiguous chunks.

        Used to farm pairwise alignment of subset pairs out to ranks
        and worker processes: the chunk count sets how many work units
        there are, not how much memory one of them takes.
        """
        if n_subsets < 1:
            raise ValueError("n_subsets must be >= 1")
        return [np.asarray(c, dtype=np.int64) for c in np.array_split(np.arange(len(self)), n_subsets)]

    def subset(self, indices: np.ndarray) -> "ReadSet":
        """A new ReadSet containing the given reads (copies)."""
        return ReadSet(self[int(i)] for i in indices)
