"""The lockstep runtime against the message-passing oracle.

For any rank count up to 64, any roots, and any sequence of the two
collectives in rank programs that charge fixed ``advance()`` costs and
send fixed payloads, every rank's results, clocks, compute time, bytes
and message counts must equal those of
``tests/reference/simcomm_mailbox.py`` exactly (``==``, not approx):
each lockstep collective computes the binomial-tree clocks the
oracle's point-to-point messages produce.  Both run the same generator
rank programs; the oracle through its blocking trampoline.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.mpi import CommCostModel, SimCluster

from tests.reference.simcomm_mailbox import run_mailbox

COST_MODELS = [
    CommCostModel(),
    CommCostModel(alpha=1e-6, beta=1e-9),
    CommCostModel(alpha=1.0, beta=0.0),
    CommCostModel(alpha=3e-7, beta=7.3e-10),
]
PAYLOAD_KINDS = ["int", "text", "nested", "ndarray", "bytes", "none"]


def payload(kind: str, rank: int, salt: int):
    """A fixed payload per (kind, rank), of rank-dependent size."""
    if kind == "int":
        return rank * 1_000_003 + salt
    if kind == "text":
        return "r" * (rank % 9) + str(salt)
    if kind == "nested":
        return {"rank": rank, "ids": list(range(rank % 13)), "pair": (salt, str(rank))}
    if kind == "ndarray":
        return np.arange(rank % 17 + salt % 5, dtype=np.int64)
    if kind == "bytes":
        return bytes(rank % 11) + salt.to_bytes(2, "little")
    return None


def plain(obj):
    """Results with arrays turned into comparable tuples."""
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.tolist())
    if isinstance(obj, list):
        return [plain(x) for x in obj]
    return obj


ops = st.lists(
    st.tuples(
        st.sampled_from(["gather", "bcast"]),
        st.integers(0, 63),  # root, taken modulo the rank count
        st.sampled_from(PAYLOAD_KINDS),
        st.integers(0, 2**16 - 1),  # payload salt
        st.floats(0.0, 1e-2, allow_nan=False),  # advance() base cost
        st.integers(0, 6),  # cost pattern: base * ((rank * step) % 7)
    ),
    min_size=1,
    max_size=6,
)


def program(comm, seq):
    trace = []
    for name, root, kind, salt, base, step in seq:
        comm.advance(base * ((comm.rank * step) % 7))
        obj = payload(kind, comm.rank, salt)
        root %= comm.size
        if name == "gather":
            out = yield comm.gather(obj, root=root)
        else:
            out = yield comm.bcast(obj, root=root)
        trace.append(
            (plain(out), comm.clock, comm.compute_time, comm.bytes_sent, comm.messages_sent)
        )
    return trace


@settings(max_examples=60, deadline=None)
@given(
    size=st.one_of(st.integers(1, 9), st.integers(10, 64)),
    cost=st.sampled_from(COST_MODELS),
    seq=ops,
)
def test_clocks_and_results_equal_the_mailbox_oracle(size, cost, seq):
    results, stats = SimCluster(size, cost_model=cost).run(program, seq)
    ref_results, ref_stats = run_mailbox(size, cost, program, seq)
    assert results == ref_results
    assert stats == ref_stats


def test_every_root_of_every_collective_up_to_64_ranks():
    """Deterministic sweep: all roots on a few sizes, one cost model."""
    cost = COST_MODELS[3]
    for size in (2, 3, 7, 64):
        for root in range(size):
            seq = [
                ("gather", root, "nested", root, 1e-3, 3),
                ("bcast", root, "ndarray", root, 2e-3, 5),
            ]
            results, stats = SimCluster(size, cost_model=cost).run(program, seq)
            assert (results, stats) == run_mailbox(size, cost, program, seq)
