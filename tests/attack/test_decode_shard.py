"""Partition invariance: a batch decodes the same in any shards.

Nothing couples tables inside one :func:`decode_schedule` batch, so
splitting the candidate tables into sub-batches — however many, in any
grouping — is a kernel-shape decision, never a semantic one.  The
property below deals a mixed batch into random shards, decodes each
shard on its own, and holds every row to the whole-batch decode field by
field; every planted table that converges is exactly its true schedule.
The per-table comparison with the dense float64 decoder is
``test_oracle_differential.py::test_decoder_matches_dense_oracle``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.decode import ChannelModel, decode_schedule
from repro.crypto.aes import expand_key

from .test_decode import _corrupt, _master, _same_result


class TestPartitionInvariance:
    @settings(max_examples=8, deadline=None)
    @given(
        key_bits=st.sampled_from([128, 192, 256]),
        rate=st.floats(min_value=0.0, max_value=0.045),
        to_ground=st.floats(min_value=0.5, max_value=2.0),
        shard_of=st.lists(st.integers(0, 3), min_size=4, max_size=4),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_property_partition_invariant_and_exact(
        self, key_bits, rate, to_ground, shard_of, seed
    ):
        """Across variants, BERs, and asymmetric channels: 2 planted and
        2 junk tables, each dealt to one of up to 4 shards."""
        masters = [_master(key_bits, seed + i) for i in range(2)]
        rng = np.random.default_rng(seed)
        tables = [
            _corrupt(expand_key(master), rate, seed + i)
            for i, master in enumerate(masters)
        ]
        tables += [rng.integers(0, 256, tables[0].size, np.uint8) for _ in range(2)]
        observed = np.vstack(tables)
        channel = ChannelModel(
            rate_to_ground=max(rate, 1e-4) * to_ground,
            rate_from_ground=max(rate, 1e-4),
        )
        whole = decode_schedule(observed, key_bits, channel)
        for shard in set(shard_of):
            rows = [i for i, s in enumerate(shard_of) if s == shard]
            part = decode_schedule(observed[rows], key_bits, channel)
            for j, row in enumerate(rows):
                assert _same_result(part.table(j), whole.table(row))
        for i, master in enumerate(masters):
            if whole.converged[i]:
                assert whole.tables[i].tobytes() == expand_key(master)
