"""ReadSet: a columnar container for many reads, held in shards.

A set's reads are cut into **shards**, each one column block: a
concatenated ``uint8`` code array, its local CSR ``int64`` offsets,
the Phred scores (or ``None``), and one id and one meta dict per read.
Reads never straddle shards.  An in-RAM set's shards are resident
blocks — ``ReadSet(reads)`` is one block, and :meth:`ReadSet.trimmed`
keeps one block per source block — and a store-backed set
(:class:`~repro.store.reads.ShardedReadSet`) loads its shards from disk
through a byte-budgeted cache.  Every accessor is written once, over
shards; the two kinds of set differ only in where a shard comes from.

A set with mates (:meth:`ReadSet.with_reverse_complements`, paper
§II-A) is a view: after its ``S`` shards come ``S`` mate shards, mate
shard ``S + s`` built from shard ``s`` on first use and then cached.

Packed k-mers are cached per shard and per ``(k, canonical)``, so the
alignment index build, the query path and the correction spectrum
share one packing pass, and a request for forward reads alone packs
only their shards.  The cache costs 8 bytes per packed base per
``(k, canonical)`` combination — see docs/performance.md.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property

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


def _narrowed(quals: np.ndarray) -> np.ndarray:
    """Scores in the narrowest unsigned dtype that holds them (``uint8``
    for real Phred data); anything negative stays ``int64``."""
    if quals.size == 0 or int(quals.min()) < 0:
        return quals
    return quals.astype(np.min_scalar_type(int(quals.max())), copy=False)


def read_columns(reads: list[Read]) -> Columns:
    """The column block of a list of reads; once any read carries
    scores, a read without them scores zero.  The scores are held as a
    store holds them (:func:`_narrowed`)."""
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
    if quals is not None:
        quals = _narrowed(quals)
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
    if kept.size == lo.size and (lo == offsets[:-1]).all() and (hi == offsets[1:]).all():
        return data, offsets, quals, ids, meta
    sizes = (hi - lo)[kept]
    trimmed = np.zeros(kept.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=trimmed[1:])
    # The kept bases as a one-byte mask: +1 where a kept span opens, -1
    # where it closes, summed in place.  Spans are disjoint and a span's
    # end is only ever another's start, so no two opens nor two closes
    # share a position and the running sum stays 0 or 1.
    kept_spans = kept[sizes > 0]
    mask = np.zeros(data.size + 1, dtype=np.int8)
    mask[lo[kept_spans]] += 1
    mask[hi[kept_spans]] -= 1
    np.cumsum(mask, out=mask)
    mask = mask[:-1].view(bool)
    kept = kept.tolist()
    return (
        data[mask],
        trimmed,
        None if quals is None else quals[mask],
        [ids[i] for i in kept],
        [meta[i] for i in kept],
    )


def _mirror(offsets: np.ndarray) -> np.ndarray:
    """Where each base of a block's reverse complements comes from: read
    ``i``'s :meth:`Read.reverse_complement` is ``complement(data[m])``
    over its own span, and its scores ``quals[m]``."""
    last = offsets[:-1] + offsets[1:] - 1
    return np.repeat(last, np.diff(offsets)) - np.arange(offsets[-1], dtype=np.int64)


def _distinct(indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(indices, return_inverse=True)`` in O(requests ×
    log requests): a request that is at least as long as the span of
    reads it covers — overlap verification's, which names each read
    many times — goes through a mask over that span, several times
    cheaper than the sort any other request takes."""
    if indices.size:
        low = int(indices.min())
        span = int(indices.max()) + 1 - low
        if span <= indices.size:
            wanted = np.zeros(span, dtype=bool)
            wanted[indices - low] = True
            return np.flatnonzero(wanted) + low, (np.cumsum(wanted) - 1)[indices - low]
    return np.unique(indices, return_inverse=True)


def _slices(array: np.ndarray, starts: list[int], ends: list[int]) -> np.ndarray:
    """``array[starts[i]:ends[i]]`` for every ``i``, end to end, in one
    C-level join."""
    view = memoryview(np.ascontiguousarray(array))
    return np.frombuffer(b"".join([view[a:b] for a, b in zip(starts, ends)]), dtype=array.dtype)


def _joined(parts: list[np.ndarray], dtype) -> np.ndarray:
    """``parts`` end to end in ``dtype``; a single part is not copied."""
    if len(parts) == 1:
        return parts[0].astype(dtype, copy=False)
    return np.concatenate(parts).astype(dtype, copy=False) if parts else np.empty(0, dtype)


class _ShardColumn(Sequence):
    """The ids or meta of a set, read shard by shard."""

    def __init__(self, reads: "ReadSet", field: int) -> None:
        self._reads = reads
        self._field = field

    def __len__(self) -> int:
        return len(self._reads)

    def __iter__(self) -> Iterator:
        for shard in range(self._reads.n_shards):
            yield from self._reads._labels(shard)[self._field]

    def __getitem__(self, i: int):
        shard, local = self._reads._locate(i + len(self) if i < 0 else i)
        return self._reads._labels(shard, slice(local, local + 1))[self._field][0]


class ReadSet:
    """An ordered collection of reads with columnar storage in shards.

    Construct with ``ReadSet(reads)``; the container is immutable after
    construction — preprocessing steps return new ReadSets.

    A subclass names where shards come from by overriding the source
    hooks :meth:`_source_bases`, :meth:`_source_labels`,
    :meth:`_cached`, :meth:`_rebuilt` and the pickle state; everything
    else reads through them.  In RAM the shards are the held blocks
    and derived shards (mates, packed k-mers) are kept in a dict, which
    pickling drops: a pickled set ships its blocks and its mirror flag.
    """

    def __init__(self, reads: Iterable[Read] = ()) -> None:
        self.__setstate__({"blocks": [read_columns(list(reads))], "mirrored": False})

    @classmethod
    def _from_blocks(cls, blocks: Iterable[Columns]) -> "ReadSet":
        """A set over ready-made column blocks (taken, not copied), one
        shard each; blocks without reads are left out."""
        self = cls.__new__(cls)
        self.__setstate__({"blocks": list(blocks), "mirrored": False})
        return self

    @classmethod
    def from_strings(cls, seqs: Sequence[str], prefix: str = "r") -> "ReadSet":
        """Convenience constructor for tests: numbered reads from strings."""
        return cls(Read.from_string(f"{prefix}{i}", s) for i, s in enumerate(seqs))

    @classmethod
    def open(cls, path, cache_budget: int | None = None) -> "ReadSet":
        """Open a sharded reads store (``repro pack``,
        :func:`repro.store.pack_reads`) as a set whose shards load
        through an LRU cache of ``cache_budget`` bytes (default: the
        store layer's 64 MiB), so peak memory is O(shard), not O(reads).
        """
        from repro.store.reads import ShardedReadSet

        if cache_budget is None:
            return ShardedReadSet(path)
        return ShardedReadSet(path, int(cache_budget))

    # -- source hooks: an in-RAM set's shards are its blocks ---------------

    def __getstate__(self) -> dict:
        return {"blocks": self._held, "mirrored": self.mirrored}

    def __setstate__(self, state: dict) -> None:
        self._held = [block for block in state["blocks"] if len(block[3])]
        #: derived shards (mates, packed k-mers) by key (:meth:`_cached`).
        self._derived: dict = {}
        self._open(
            np.concatenate([[0], *(np.diff(block[1]) for block in self._held)]).cumsum(),
            np.cumsum([0] + [len(block[3]) for block in self._held], dtype=np.int64),
            any(block[2] is not None for block in self._held),
            state["mirrored"],
        )

    def _source_bases(
        self, shard: int, cache: bool = True
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``(data, local offsets, scores or None)`` of stored shard
        ``shard``; with ``cache`` false, loaded past any cache."""
        return self._held[shard][:3]

    def _source_labels(self, shard: int) -> tuple[list, list]:
        """``(ids, meta)`` of stored shard ``shard``."""
        return self._held[shard][3:]

    def _cached(self, key: tuple, loader):
        """The derived value under ``key``; ``loader`` returns ``(value,
        nbytes)`` and runs on the first request only."""
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = loader()[0]
        return value

    def _rebuilt(self, tag: str, params: dict, blocks: Iterable[Columns]) -> "ReadSet":
        """A new set holding ``blocks`` in order (``tag`` and ``params``
        name the step, for sets that keep what they derive)."""
        return ReadSet._from_blocks(blocks)

    # -- shards -----------------------------------------------------------

    def _open(
        self, offsets: np.ndarray, record_starts: np.ndarray, has_quals: bool, mirrored: bool
    ) -> None:
        """Lay the set over its stored shards: global ``offsets`` and
        each shard's first read (``record_starts``, one past the end
        last), doubled when the set is ``mirrored``."""
        #: whether the set carries Phred scores at all.
        self.has_quals = bool(has_quals)
        #: whether the second half of the set is the first half's reverse
        #: complements, read ``i + n`` the mate of read ``i``
        #: (:meth:`with_reverse_complements`).
        self.mirrored = bool(mirrored)
        self._n_stored = int(record_starts.size - 1)
        if mirrored:
            offsets = np.concatenate([offsets, offsets[1:] + offsets[-1]])
            record_starts = np.concatenate([record_starts, record_starts[1:] + record_starts[-1]])
        self.offsets = offsets
        #: shard ``s`` holds reads ``record_starts[s]`` up to ``record_starts[s + 1]``.
        self.record_starts = record_starts
        #: global position of each shard's first base.
        self._base_bounds = np.asarray(offsets[record_starts], dtype=np.int64)
        self._materialized: np.ndarray | None = None

    # A column is made on each access: held, it would be a reference
    # cycle, which keeps a dropped set's shards alive until the cyclic
    # collector runs.
    @property
    def ids(self) -> Sequence[str]:
        """Every read's id, read shard by shard."""
        return _ShardColumn(self, 0)

    @property
    def meta(self) -> Sequence[dict]:
        """Every read's meta dict, read shard by shard."""
        return _ShardColumn(self, 1)

    @property
    def n_shards(self) -> int:
        """The stored shards, and as many mate shards when mirrored."""
        return int(self.record_starts.size - 1)

    def _locate(self, i: int) -> tuple[int, int]:
        """``(shard, index within it)`` of read ``i``; a mate shard
        follows the stored ones."""
        if not 0 <= i < len(self):
            raise IndexError(i)
        shard = int(np.searchsorted(self.record_starts, i, side="right") - 1)
        return shard, int(i) - int(self.record_starts[shard])

    def _span(self, i: int) -> tuple[int, int, int]:
        """``(shard, start, end)`` of read ``i``'s bases within its shard."""
        shard = self._locate(i)[0]
        base = int(self._base_bounds[shard])
        return shard, int(self.offsets[i]) - base, int(self.offsets[i + 1]) - base

    def _shard(self, shard: int, cache: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """``(data, local offsets)`` of any shard; a mate shard's bases
        are built from its stored shard on first use (each use when
        ``cache`` is false: nothing is read or kept through the cache)."""
        n = self._n_stored
        if shard < n:
            return self._source_bases(shard, cache)[:2]

        def loader():
            data, offsets, _ = self._source_bases(shard - n, cache)
            return (complement(data[_mirror(offsets)]), offsets), data.nbytes + offsets.nbytes

        return self._cached(("mate", shard), loader) if cache else loader()[0]

    def _shard_quals(self, shard: int, cache: bool = True) -> np.ndarray | None:
        """Scores of any shard: ``None`` in a set without any, zeros (a
        read-only view, not an array) for a shard stored without them.
        A mate shard's are built like its bases (:meth:`_shard`) but
        apart from them, which are all alignment and an unweighted
        consensus read."""
        if not self.has_quals:
            return None
        n = self._n_stored
        if shard < n:
            data, _, quals = self._source_bases(shard, cache)
            return np.broadcast_to(np.uint8(0), data.shape) if quals is None else quals

        def loader():
            data, offsets, quals = self._source_bases(shard - n, cache)
            mate = np.zeros(data.size, np.uint8) if quals is None else quals[_mirror(offsets)]
            return mate, mate.nbytes

        return self._cached(("mate quals", shard), loader) if cache else loader()[0]

    def _labels(self, shard: int, reads: slice = slice(None)) -> tuple[list, list]:
        """``(ids, meta)`` of ``reads`` of any shard; a mate shard's are
        its stored shard's, relabelled: ids gain ``/rc``, meta ``rc_of``."""
        n = self._n_stored
        ids, meta = self._source_labels(shard % n)
        ids, meta = ids[reads], meta[reads]
        if shard < n:
            return ids, meta
        return [i + "/rc" for i in ids], [{**m, "rc_of": i} for i, m in zip(ids, meta)]

    def _shard_kmers(self, shard: int, k: int, canonical: bool) -> np.ndarray:
        """Packed k-mer values of one shard's concatenated codes (read-only)."""
        packer = canonical_kmer_codes if canonical else kmer_codes

        def loader():
            packed = packer(self._shard(shard)[0], int(k))
            packed.setflags(write=False)
            return packed, int(packed.nbytes)

        return self._cached(("kmers", shard, int(k), bool(canonical)), loader)

    def _blocks(self) -> Iterator[Columns]:
        """Every shard as a column block, in shard order (one visit each);
        a shard without scores in a set with them scores zero."""
        for shard in range(self.n_shards):
            yield (*self._shard(shard), self._shard_quals(shard), *self._labels(shard))

    # -- basic protocol ---------------------------------------------------

    def __len__(self) -> int:
        return int(self.record_starts[-1])

    def __iter__(self) -> Iterator[Read]:
        for shard in range(self.n_shards):
            data, offsets = self._shard(shard)
            bounds = offsets.tolist()
            for lo, hi, read_id, meta in zip(bounds, bounds[1:], *self._labels(shard)):
                yield Read(read_id, data[lo:hi].copy(), self._scores(shard, lo, hi), meta)

    def __getitem__(self, i: int) -> Read:
        i = i + len(self) if i < 0 else i
        shard, lo, hi = self._span(i)
        codes = self._shard(shard)[0][lo:hi].copy()
        return Read(self.ids[i], codes, self._scores(shard, lo, hi), self.meta[i])

    def _scores(self, shard: int, lo: int, hi: int) -> np.ndarray | None:
        """An ``int64`` copy of a shard's scores ``lo:hi``: ``None`` in a
        set without scores, zeros for a shard stored without them."""
        quals = self._shard_quals(shard)
        return None if quals is None else quals[lo:hi].astype(np.int64)

    def codes_of(self, i: int) -> np.ndarray:
        """Zero-copy view of read ``i``'s base codes."""
        shard, lo, hi = self._span(i)
        return self._shard(shard)[0][lo:hi]

    def quals_of(self, i: int) -> np.ndarray | None:
        """A copy of read ``i``'s Phred scores as ``int64`` (zeros for a
        read stored without them in a set with them)."""
        return self._scores(*self._span(i))

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

    # -- whole-set materialization (explicit; avoid in kernels) -----------

    def to_array(self) -> np.ndarray:
        """The full concatenated code array (read-only), built once from
        the shards, which are loaded past the cache so that the working
        set stays in it.

        O(total bases) memory unless the set is one resident block,
        whose array it is.  Per-partition kernels must stream instead
        (lint rule MEM001 flags this call inside them).
        """
        if self._materialized is None:
            parts = [self._shard(s, cache=False)[0] for s in range(self.n_shards)]
            self._materialized = _joined(parts, np.uint8)
            self._materialized.setflags(write=False)
        return self._materialized

    @property
    def data(self) -> np.ndarray:
        """:meth:`to_array`."""
        return self.to_array()

    @property
    def quals(self) -> np.ndarray | None:
        """Every read's scores end to end as ``int64`` (``None`` without
        any), read-only.  Built on each call: kept, the wide copy would
        sit beside the narrow blocks for the life of the set."""
        if not self.has_quals:
            return None
        parts = [self._shard_quals(s, cache=False) for s in range(self.n_shards)]
        quals = _joined(parts, np.int64)
        quals.setflags(write=False)
        return quals

    # -- block access -----------------------------------------------------
    # The one bulk read primitive: consensus, overlap verification and
    # preprocessing all take their bases through it, so a request is
    # served with one visit per shard.

    def gather_reads(
        self, indices: np.ndarray, quals: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The reads at ``indices`` as one ragged block.

        Returns ``(codes, starts, scores)``: request ``j``'s bases are
        ``codes[starts[j] : starts[j] + lengths[indices[j]]]`` and its
        Phred scores the same span of ``scores`` (``None`` unless
        ``quals`` is asked for and the set has any).  Each distinct
        read is copied once, shard by shard, and a run of consecutive
        reads as one slice: a call's cost grows with the request, not
        with the set.
        """
        # Distinct requested reads, ascending: one shard's are adjacent
        # both here and in the block.
        distinct, request = _distinct(np.asarray(indices, dtype=np.int64))
        sizes = self.lengths[distinct]
        ends = np.cumsum(sizes)
        starts = ends - sizes
        codes = np.empty(int(sizes.sum()), dtype=np.uint8)
        scores = np.empty(codes.size, dtype=np.int64) if quals and self.has_quals else None
        shards = np.searchsorted(self.record_starts, distinct, side="right") - 1
        cuts = np.flatnonzero(np.diff(shards, prepend=-1, append=-1)).tolist()
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            shard = int(shards[lo])
            data, offsets = self._shard(shard)
            # Each run of consecutive reads is one slice of the shard.
            local = distinct[lo:hi] - self.record_starts[shard]
            first = np.flatnonzero(np.diff(local, prepend=-2) != 1)
            last = np.append(first[1:], local.size) - 1
            runs = offsets[local[first]].tolist(), offsets[local[last] + 1].tolist()
            dest = slice(int(starts[lo]), int(ends[hi - 1]))
            codes[dest] = _slices(data, *runs)
            if scores is not None:
                scores[dest] = _slices(self._shard_quals(shard), *runs)
        return codes, starts[request], scores

    # -- k-mer code cache -------------------------------------------------

    def kmer_codes_of(self, i: int, k: int, canonical: bool = False) -> np.ndarray:
        """Packed k-mer values of read ``i`` (cache-backed view).

        Equal to ``kmer_codes(self.codes_of(i), k)`` (length
        ``len_i - k + 1``, invalid windows -1) but computed via the
        per-shard cache, so repeated callers never re-pack the read.
        """
        shard, lo, hi = self._span(i)
        if hi - k + 1 <= lo:
            return np.empty(0, dtype=np.int64)
        return self._shard_kmers(shard, k, canonical)[lo : hi - k + 1]

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
        query side of a cross-subset work unit; its Python loop runs once
        per run of requested reads in one shard.  Only the shards of the
        given reads are packed: alignment asks a set with mates for its
        forward reads, so its mate shards are not.
        """
        if read_indices is None:
            idx = np.arange(len(self), dtype=np.int64)
        else:
            idx = np.asarray(read_indices, dtype=np.int64)
        n_windows = np.maximum(self.lengths[idx] - k + 1, 0)
        total = int(n_windows.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        read_ids = np.repeat(idx, n_windows)
        group_starts = np.cumsum(n_windows) - n_windows
        within = np.arange(total, dtype=np.int64) - np.repeat(group_starts, n_windows)
        # Each window's position in its shard; each run of requested
        # reads in one shard (the whole request when it is ascending and
        # in one shard) is a run of windows, taken from that shard's
        # packed k-mers.
        shards = np.searchsorted(self.record_starts, idx, side="right") - 1
        local = np.repeat(self.offsets[idx] - self._base_bounds[shards], n_windows) + within
        runs = np.flatnonzero(np.diff(shards, prepend=-1, append=-1))
        window_cuts = np.append(group_starts, total)[runs].tolist()
        values = np.empty(total, dtype=np.int64)
        for read, lo, hi in zip(runs[:-1].tolist(), window_cuts[:-1], window_cuts[1:]):
            packed = self._shard_kmers(int(shards[read]), k, canonical)
            # in range by construction; "clip" writes to out unbuffered
            np.take(packed, local[lo:hi], out=values[lo:hi], mode="clip")
        return values, read_ids, within

    # -- preprocessing ---------------------------------------------------
    # Trimming maps a column kernel over the set's shards and
    # :meth:`_rebuilt` makes a set of the results, one block per shard.

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
        """The set and the reverse complement of every read (paper §II-A),
        as a view: mate shard ``S + s`` is built from shard ``s`` when it
        is first asked for.

        The forward read ``i`` and its reverse complement ``i + n`` are
        paired; :meth:`mate_of` maps between them.
        """
        if self.mirrored:
            raise ValueError("the read set already holds its reverse complements")
        view = type(self).__new__(type(self))
        view.__setstate__({**self.__getstate__(), "mirrored": True})
        return view

    def mate_of(self, i: int) -> int:
        """Index of read ``i``'s reverse complement in a :attr:`mirrored` set."""
        if not self.mirrored:
            raise ValueError("read set was not built with with_reverse_complements()")
        n = self.n_forward
        return i + n if i < n else i - n

    def split(self, n_subsets: int) -> list[np.ndarray]:
        """Split read indices into ``n_subsets`` contiguous chunks.

        Used to farm pairwise alignment of subset pairs out to ranks
        and worker processes: the chunk count sets how many work units
        there are, not how much memory one of them takes.
        """
        if n_subsets < 1:
            raise ValueError("n_subsets must be >= 1")
        return [np.asarray(c, dtype=np.int64) for c in np.array_split(np.arange(len(self)), n_subsets)]
