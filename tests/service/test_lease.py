"""Unit tests for lease claim/heartbeat/takeover arbitration."""

import json
import os
import threading

import pytest

from repro.io.codec import decode, encode
from repro.service import lease as lease_mod
from repro.service.lease import Lease, LeaseLostError


@pytest.fixture
def job_dir(tmp_path):
    d = tmp_path / "job"
    d.mkdir()
    return str(d)


class TestClaim:
    def test_claim_then_read(self, job_dir):
        lease = lease_mod.claim(job_dir, "sup-a", ttl=10.0, now=100.0)
        assert lease is not None
        assert lease.owner == "sup-a"
        assert lease.expires == 110.0
        assert lease.pid == os.getpid()
        assert lease_mod.read(job_dir) == lease

    def test_second_claim_loses(self, job_dir):
        assert lease_mod.claim(job_dir, "a", ttl=10.0) is not None
        assert lease_mod.claim(job_dir, "b", ttl=10.0) is None

    def test_concurrent_claims_one_winner(self, job_dir):
        won = []
        barrier = threading.Barrier(8)

        def racer(name):
            barrier.wait()
            if lease_mod.claim(job_dir, name, ttl=10.0) is not None:
                won.append(name)

        threads = [
            threading.Thread(target=racer, args=(f"sup-{i}",))
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(won) == 1
        assert lease_mod.read(job_dir).owner == won[0]

    def test_claim_leaves_no_tmp_debris(self, job_dir):
        lease_mod.claim(job_dir, "a", ttl=10.0)
        lease_mod.claim(job_dir, "b", ttl=10.0)  # loser
        assert sorted(os.listdir(job_dir)) == ["lease.json"]

    def test_rejects_nonpositive_ttl(self, job_dir):
        with pytest.raises(ValueError):
            lease_mod.claim(job_dir, "a", ttl=0.0)

    def test_read_absent_is_none(self, job_dir):
        assert lease_mod.read(job_dir) is None

    def test_read_malformed_raises(self, job_dir):
        with open(os.path.join(job_dir, "lease.json"), "w") as fh:
            fh.write("{half a lease")
        with pytest.raises(ValueError):
            lease_mod.read(job_dir)


class TestHeartbeat:
    def test_extends_expiry_and_counts(self, job_dir):
        lease = lease_mod.claim(job_dir, "a", ttl=10.0, now=100.0)
        renewed = lease_mod.heartbeat(job_dir, lease, ttl=10.0, now=105.0)
        assert renewed.expires == 115.0
        assert renewed.beats == 1
        assert lease_mod.read(job_dir) == renewed

    def test_lost_lease_raises(self, job_dir):
        lease = lease_mod.claim(job_dir, "a", ttl=10.0)
        os.unlink(os.path.join(job_dir, "lease.json"))
        with pytest.raises(LeaseLostError):
            lease_mod.heartbeat(job_dir, lease, ttl=10.0)

    def test_taken_over_lease_raises(self, job_dir):
        lease = lease_mod.claim(job_dir, "a", ttl=0.01, now=100.0)
        assert lease_mod.take_over(job_dir, now=200.0)
        other = lease_mod.claim(job_dir, "b", ttl=10.0)
        assert other is not None
        with pytest.raises(LeaseLostError):
            lease_mod.heartbeat(job_dir, lease, ttl=10.0)
        # the new owner's heartbeat still works
        lease_mod.heartbeat(job_dir, other, ttl=10.0)

    def test_pid_handoff(self, job_dir):
        lease = lease_mod.claim(job_dir, "a", ttl=10.0, pid=111)
        renewed = lease_mod.heartbeat(job_dir, lease, ttl=10.0, pid=222)
        assert renewed.pid == 222
        # subsequent beats keep the handed-off pid
        again = lease_mod.heartbeat(job_dir, renewed, ttl=10.0)
        assert again.pid == 222


class TestRelease:
    def test_release_held(self, job_dir):
        lease = lease_mod.claim(job_dir, "a", ttl=10.0)
        assert lease_mod.release(job_dir, lease)
        assert lease_mod.read(job_dir) is None

    def test_release_lost_is_noop(self, job_dir):
        lease = lease_mod.claim(job_dir, "a", ttl=0.01, now=100.0)
        assert lease_mod.take_over(job_dir, now=200.0)
        other = lease_mod.claim(job_dir, "b", ttl=10.0)
        assert not lease_mod.release(job_dir, lease)
        assert lease_mod.read(job_dir) == other


class TestTakeOver:
    def test_fresh_lease_refused(self, job_dir):
        lease_mod.claim(job_dir, "a", ttl=10.0, now=100.0)
        assert not lease_mod.take_over(job_dir, now=105.0)

    def test_stale_lease_cleared(self, job_dir):
        lease_mod.claim(job_dir, "a", ttl=1.0, now=100.0)
        assert lease_mod.take_over(job_dir, now=102.0)
        assert lease_mod.read(job_dir) is None
        # no tombstone debris
        assert os.listdir(job_dir) == []

    def test_absent_lease_is_takeable(self, job_dir):
        assert lease_mod.take_over(job_dir)

    def test_concurrent_takeover_claim_one_owner(self, job_dir):
        # take_over alone lets several racers through once the stale
        # file is gone (absence is takeable by design); the documented
        # protocol is take_over *then* claim.  The safety property at
        # rest: exactly one claimant's token survives in the lease
        # file, and every other claimant discovers the loss on its
        # next heartbeat — which is why lease-guarded side effects
        # must follow a claim or heartbeat, never a bare read.
        lease_mod.claim(job_dir, "dead", ttl=0.01, now=100.0)
        cleared = []
        claims = []
        barrier = threading.Barrier(8)

        def racer(i):
            barrier.wait()
            if lease_mod.take_over(job_dir, now=200.0):
                cleared.append(i)
                guard = lease_mod.claim(job_dir, f"sup-{i}", ttl=10.0)
                if guard is not None:
                    claims.append((i, guard))

        threads = [
            threading.Thread(target=racer, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cleared) >= 1
        assert len(claims) >= 1
        final = lease_mod.read(job_dir)
        assert final is not None
        survivors = [i for i, g in claims if g.token == final.token]
        assert len(survivors) == 1
        assert final.owner == f"sup-{survivors[0]}"
        for i, guard in claims:
            if guard.token == final.token:
                lease_mod.heartbeat(job_dir, guard, ttl=10.0)
            else:
                with pytest.raises(LeaseLostError):
                    lease_mod.heartbeat(job_dir, guard, ttl=10.0)

    def test_takeover_restores_a_freshly_claimed_lease(
        self, job_dir, monkeypatch
    ):
        # The ABA race, deterministically: this racer reads the stale
        # lease, then — before its rename — the lease is cleared and a
        # fresh owner claims.  The rename grabs the fresh lease by
        # mistake; the tombstone check must put it back and report the
        # takeover lost.
        lease_mod.claim(job_dir, "dead", ttl=0.01, now=100.0)
        fresh = {}
        real_rename = os.rename

        def steal_window_rename(src, dst):
            if "stale" in dst and not fresh:
                fresh["busy"] = True  # the nested take_over renames too
                assert lease_mod.take_over(job_dir, now=200.0)
                fresh["lease"] = lease_mod.claim(job_dir, "quick", ttl=10.0)
                assert fresh["lease"] is not None
            return real_rename(src, dst)

        monkeypatch.setattr(os, "rename", steal_window_rename)
        assert not lease_mod.take_over(job_dir, now=200.0)
        monkeypatch.setattr(os, "rename", real_rename)
        # the fresh owner's lease survived the attempted steal
        assert lease_mod.read(job_dir) == fresh["lease"]
        lease_mod.heartbeat(job_dir, fresh["lease"], ttl=10.0)
        assert sorted(os.listdir(job_dir)) == ["lease.json"]


class TestLeaseJson:
    def test_roundtrip(self):
        lease = Lease(
            owner="a", token="t" * 32, pid=7, acquired=1.0, expires=2.0, beats=3
        )
        assert decode(Lease, json.loads(json.dumps(encode(lease), sort_keys=True))) == lease

    def test_stale(self):
        lease = Lease(owner="a", token="t", pid=7, acquired=1.0, expires=2.0)
        assert lease.stale(now=2.0)
        assert not lease.stale(now=1.9)
