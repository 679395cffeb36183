"""Sharded-store assemblies are byte-identical to in-RAM on every backend."""

import itertools
import os

import numpy as np
import pytest

from repro.align import overlapper
from repro.align.overlapper import OverlapConfig, OverlapDetector
from repro.core.config import AssemblyConfig
from repro.core.focus import FocusAssembler
from repro.distributed.dgraph import enrich_hybrid
from repro.graph import contigs
from repro.io.readset import ReadSet, _ShardColumn
from repro.simulate.genome import Genome, random_genome
from repro.simulate.reads import ReadSimConfig, ReadSimulator
from repro.store import ShardedReadSet, pack_reads
from repro.store.sharded import ShardedStore


@pytest.fixture(scope="module")
def sim_reads():
    rng = np.random.default_rng(7)
    genome = Genome("g", random_genome(2500, rng))
    sim = ReadSimulator(ReadSimConfig(read_length=100, coverage=8.0, seed=7))
    return list(sim.simulate_genome(genome))


@pytest.fixture(scope="module")
def store_path(sim_reads, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("stores") / "reads.store")
    pack_reads(iter(sim_reads), path, shard_size=31)
    return path


def config_for(backend, store_path=None):
    return AssemblyConfig(
        backend=backend,
        n_partitions=2,
        store_path=store_path,
        cache_budget=1 << 20,
    )


class TestStoreBackedAssembly:
    @pytest.mark.parametrize("backend", ["serial", "sim", "process"])
    def test_contigs_byte_identical(self, backend, sim_reads, store_path):
        assembler = FocusAssembler(config_for(backend, store_path))
        ram = assembler.assemble(ReadSet(sim_reads))
        stored = assembler.assemble()  # dispatches to the store
        assert len(stored.contigs) == len(ram.contigs)
        for a, b in zip(ram.contigs, stored.contigs):
            assert a.tobytes() == b.tobytes()

    def test_preprocessing_stays_shard_backed(self, store_path):
        assembler = FocusAssembler(config_for("serial", store_path))
        prep = assembler.prepare(assembler.open_reads())
        assert isinstance(prep.reads, ShardedReadSet) and prep.reads.mirrored
        # the mates are a view of the trimmed store: no second store.
        for root, dirs, _ in os.walk(store_path):
            assert all(d.startswith("trim-") for d in dirs if root.endswith("derived"))

    def test_open_reads_requires_store_path(self):
        assembler = FocusAssembler(config_for("serial"))
        with pytest.raises(ValueError, match="store_path"):
            assembler.open_reads()

    def test_assemble_without_reads_or_store_fails(self):
        assembler = FocusAssembler(config_for("serial"))
        with pytest.raises(ValueError):
            assembler.assemble()

    def test_fingerprint_tracks_store(self, sim_reads, store_path):
        """Checkpoint fingerprints must distinguish store-backed runs."""
        assembler = FocusAssembler(config_for("serial", store_path))
        prep_ram = assembler.prepare(ReadSet(sim_reads))
        prep_store = assembler.prepare(assembler.open_reads())
        fp_ram = assembler._fingerprint(prep_ram, k=2, mode="hybrid")
        fp_store = assembler._fingerprint(prep_store, k=2, mode="hybrid")
        assert fp_ram["store"] is None
        assert fp_store["store"] is not None
        assert fp_ram != fp_store

    def test_quality_weighted_consensus_stays_shard_backed(
        self, sim_reads, store_path, monkeypatch
    ):
        """Weighted votes take their scores block by block: the
        whole-store ``.quals`` materialisation is never built."""
        cfg = AssemblyConfig(
            n_partitions=2,
            store_path=store_path,
            cache_budget=1 << 20,
            quality_weighted_consensus=True,
        )
        assembler = FocusAssembler(cfg)
        with monkeypatch.context() as patch:
            patch.setattr(ReadSet, "quals", property(lambda _: pytest.fail("built .quals")))
            stored = assembler.prepare(assembler.open_reads())
        assert stored.reads.has_quals
        assert stored.reads._materialized is None
        ram = assembler.prepare(ReadSet(sim_reads))
        assert [c.tobytes() for c in stored.assembly.contigs] == [
            c.tobytes() for c in ram.assembly.contigs
        ]


class TestAlignWorkUnitInvariance:
    """Contigs do not depend on how alignment is cut into work units or
    where they run — the align-stage analogue of the paper's Table III."""

    def test_contigs_byte_identical(self, sim_reads, store_path):
        digests = set()
        for n_subsets, workers, path in itertools.product(
            (1, 3), (0, 2), (None, store_path)
        ):
            cfg = AssemblyConfig(
                backend="serial",
                n_partitions=2,
                overlap=OverlapConfig(n_subsets=n_subsets),
                overlap_workers=workers,
                store_path=path,
                cache_budget=1 << 20,
            )
            reads = None if path else ReadSet(sim_reads)
            result = FocusAssembler(cfg).assemble(reads)
            digests.add(tuple(c.tobytes() for c in result.contigs))
        assert len(digests) == 1 and len(digests.pop()) > 0


class TestShardOrderAccess:
    """The store is read a block at a time, in shard order.

    Counted in ``ShardedStore.load_shard`` calls with a cache that
    holds one shard, so a per-read walk in cluster or candidate order
    (hundreds of loads here) cannot come back unnoticed.
    """

    @pytest.fixture()
    def assembler(self, tmp_path):
        rng = np.random.default_rng(11)
        genome = Genome("g", random_genome(7500, rng))
        sim = ReadSimulator(ReadSimConfig(read_length=100, coverage=8.0, seed=11))
        path = str(tmp_path / "reads.store")
        manifest = pack_reads(sim.simulate_genome(genome), path, shard_size=64)
        assert manifest.n_records >= 600 and manifest.n_shards >= 8
        budget = max(s.nbytes for s in manifest.shards)
        return FocusAssembler(AssemblyConfig(store_path=path, cache_budget=budget))

    @pytest.fixture()
    def loads(self, monkeypatch):
        calls = []
        load_shard = ShardedStore.load_shard

        def counting(store, index):
            calls.append((store.path, index))
            return load_shard(store, index)

        monkeypatch.setattr(ShardedStore, "load_shard", counting)
        return calls

    def test_preprocess_reads_each_shard_in_turn(self, assembler, loads):
        source = assembler.open_reads()
        rs = assembler.preprocess(source)
        per_store = {path: [i for p, i in loads if p == path] for path, _ in loads}
        assert per_store.pop(source.store_path) == [*range(source.store.n_shards)]
        # the trimmed reads are written, and their mates are a view of
        # them: neither is read back.
        assert per_store == {} and rs.mirrored and rs.store_path != source.store_path

    def test_enrich_visits_each_shard_once_per_block(self, assembler, loads, monkeypatch):
        prep = assembler.prepare(assembler.open_reads())
        monkeypatch.setattr(contigs, "_MAX_BASES", prep.reads.total_bases // 3)
        blocks = []
        gather = ShardedReadSet.gather_reads

        def counting(reads, indices, quals=False):
            blocks.append(len(loads))
            return gather(reads, indices, quals)

        monkeypatch.setattr(ShardedReadSet, "gather_reads", counting)
        del loads[:]
        enrich_hybrid(prep.hyb, prep.g0, prep.reads)
        assert 3 <= len(blocks) <= 5
        per_block = np.diff([*blocks, len(loads)])
        assert (per_block <= prep.reads.n_shards).all()

    def test_compare_visits_each_shard_once_per_block(self, assembler, loads, monkeypatch):
        rs = assembler.preprocess(assembler.open_reads())
        monkeypatch.setattr(overlapper, "_MAX_CELLS", 50_000)
        blocks = []
        gather = ShardedReadSet.gather_reads

        def counting(reads, indices, quals=False):
            before = len(loads)
            out = gather(reads, indices, quals)
            blocks.append(len(loads) - before)
            return out

        monkeypatch.setattr(ShardedReadSet, "gather_reads", counting)
        detector = OverlapDetector(assembler.config.overlap)
        forward = np.arange(rs.n_forward)
        packed_overlaps, _ = detector.overlap_subset_pair_packed(
            rs, forward, forward, same_subset=True, max_hits=10_000
        )
        assert len(packed_overlaps) > 0 and len(blocks) >= 6
        assert max(blocks) <= rs.n_shards

    def test_align_loads_no_more_shards_than_before(
        self, assembler, loads, monkeypatch
    ):
        # The compare reads every diagonal that shares a k-mer, not only
        # the candidates, and must not pay for that in shard visits.
        # Counted in the proportions of the par2_store_d1 unit: its
        # 6,934,626 hit rows were 6.6 stripe budgets — this fixture's
        # 330,160, cut the same way, cost the hit-list kernel 123 loads
        # (20 for the k-mer table, the rest verifying) — and its
        # 12,148,202 compared bases were 2.9 block budgets.  A block's
        # budget is in tile cells, so the cut is total cells / 2.9.
        rs = assembler.preprocess(assembler.open_reads())
        unit = (rs, np.arange(rs.n_forward), np.arange(rs.n_forward), True)
        detector = OverlapDetector(assembler.config.overlap)
        compared = []
        diagonal_tile = overlapper._diagonal_tile

        def counting(*rows):
            tile = diagonal_tile(*rows)
            compared.append(tile.size)
            return tile

        monkeypatch.setattr(overlapper, "_diagonal_tile", counting)
        whole = detector.overlap_subset_pair_packed(*unit)
        total = sum(compared) // 2  # both sides of every span
        monkeypatch.setattr(overlapper, "_MAX_CELLS", int(total / 2.9))
        del loads[:], compared[:]
        blocks = detector.overlap_subset_pair_packed(*unit)
        assert len(compared) == 2 * 3 and blocks[1] == whole[1] > 0
        assert len(loads) <= 123

    def test_prepare_never_walks_the_store_read_by_read(self, assembler, monkeypatch):
        def per_read(*args, **kwargs):
            raise AssertionError("per-read store access inside prepare()")

        monkeypatch.setattr(ShardedReadSet, "codes_of", per_read)
        monkeypatch.setattr(ShardedReadSet, "quals_of", per_read)
        monkeypatch.setattr(_ShardColumn, "__getitem__", per_read)
        prep = assembler.prepare(assembler.open_reads())
        assert len(prep.assembly.contigs) > 0
