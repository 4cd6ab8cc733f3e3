"""Property tests for the distributed runtime's wire format.

Every byte crossing a process boundary — spilled exchange partitions,
output blobs on the worker pipe — is one wire blob.  Hypothesis drives
:class:`ColumnBatch` and dataset round-trips over adversarial payloads
(NULLs, unicode, negative zero, empty partitions, heterogeneous
columns): the round-trip must be loss-free and canonical-bytes-stable,
the pickle protocol must stay pinned, and structurally invalid blobs
must fail loudly as :class:`WireError`, never deserialize quietly.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.exec.columnar.batch import ColumnarDataset, ColumnBatch
from repro.exec.datasets import Dataset
from repro.exec.dist import (
    MAGIC,
    WIRE_PROTOCOL,
    WireError,
    decode_batch,
    decode_dataset,
    encode_batch,
    encode_dataset,
)
from repro.plan.columns import Column, ColumnType, Schema

#: Cell values: NULLs, signed integers, finite floats (including -0.0),
#: and unicode text — one strategy per *cell*, so a single column can
#: mix types (the executors never produce that, but the wire must not
#: corrupt it either).
VALUES = st.one_of(
    st.none(),
    st.integers(min_value=-(2 ** 41), max_value=2 ** 41),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
)

NAMES = st.lists(
    st.text(min_size=1, max_size=8), unique=True, min_size=0, max_size=5
)


@st.composite
def column_batches(draw):
    names = draw(NAMES)
    n_rows = draw(st.integers(min_value=0, max_value=20))
    columns = {
        name: draw(
            st.lists(VALUES, min_size=n_rows, max_size=n_rows)
        )
        for name in names
    }
    return ColumnBatch(columns, n_rows)


def _exact(values):
    """reprs distinguish what ``==`` conflates (-0.0 vs 0.0, 1 vs 1.0)."""
    return [(type(v).__name__, repr(v)) for v in values]


class TestBatchRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(batch=column_batches())
    def test_round_trip_is_lossless(self, batch):
        decoded = decode_batch(encode_batch(batch))
        assert decoded.n_rows == batch.n_rows
        assert set(decoded.columns) == set(batch.columns)
        for name, values in batch.columns.items():
            assert _exact(decoded.columns[name]) == _exact(values), name

    @settings(max_examples=100, deadline=None)
    @given(batch=column_batches())
    def test_encoding_is_deterministic(self, batch):
        """Same batch -> same bytes, and re-encoding a decoded batch
        reproduces the original blob (stability under round-trip)."""
        blob = encode_batch(batch)
        assert encode_batch(batch) == blob
        assert encode_batch(decode_batch(blob)) == blob

    def test_empty_batch_and_empty_columns(self):
        for batch in (
            ColumnBatch({}, 0),
            ColumnBatch.empty(["a", "b"]),
            ColumnBatch({"a": [None, None]}, 2),
        ):
            decoded = decode_batch(encode_batch(batch))
            assert decoded.n_rows == batch.n_rows
            assert decoded.columns == batch.columns


class TestDatasetRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(
        names=st.lists(st.text(min_size=1, max_size=6), unique=True,
                       min_size=1, max_size=4),
        data=st.data(),
    )
    def test_round_trip_preserves_canonical_bytes(self, names, data):
        n_parts = data.draw(st.integers(min_value=0, max_value=4))
        partitions = []
        for _ in range(n_parts):
            n_rows = data.draw(st.integers(min_value=0, max_value=10))
            partitions.append(ColumnBatch(
                {
                    name: data.draw(st.lists(VALUES, min_size=n_rows,
                                             max_size=n_rows))
                    for name in names
                },
                n_rows,
            ))
        schema = Schema([Column(name, ColumnType.INT) for name in names])
        dataset = ColumnarDataset(schema, partitions)
        decoded = decode_dataset(encode_dataset(dataset))
        assert decoded.n_partitions == dataset.n_partitions
        assert [p.n_rows for p in decoded.partitions] == [
            p.n_rows for p in dataset.partitions
        ]
        assert (
            decoded.to_row_dataset().canonical_bytes()
            == dataset.to_row_dataset().canonical_bytes()
        )
        # Stability: decode -> encode reproduces the blob byte-for-byte.
        assert encode_dataset(decoded) == encode_dataset(dataset)

    def test_row_dataset_encodes_to_the_same_bytes_as_columnar(self):
        """Row (output-file) and columnar datasets serialize to
        identical wire blobs: the on-disk format is layout-independent
        (rows are transposed on the way in)."""
        schema = Schema([Column("a"), Column("b")])
        rows = [{"a": 1, "b": "x"}, {"a": None, "b": "ü"}]
        row_ds = Dataset(schema, [rows, []])
        col_ds = ColumnarDataset(
            schema,
            [ColumnBatch.from_rows(("a", "b"), rows),
             ColumnBatch.empty(("a", "b"))],
        )
        assert encode_dataset(row_ds) == encode_dataset(col_ds)
        decoded = decode_dataset(encode_dataset(row_ds))
        assert isinstance(decoded, ColumnarDataset)
        assert decoded.to_row_dataset().canonical_bytes() == \
            row_ds.canonical_bytes()


class TestProtocolPinning:
    def test_wire_protocol_is_pinned(self):
        """Bumping the protocol breaks mixed-version spill directories;
        the pin is load-bearing, not a default."""
        assert WIRE_PROTOCOL == 4

    def test_blobs_actually_use_the_pinned_protocol(self):
        blob = encode_batch(ColumnBatch({"a": [1, 2]}, 2))
        assert blob.startswith(MAGIC)
        # Pickle protocol >= 2 opens with the PROTO opcode (0x80)
        # followed by the protocol number.
        payload = blob[len(MAGIC):]
        assert payload[0:1] == b"\x80"
        assert payload[1] == WIRE_PROTOCOL


class TestRejection:
    def test_bad_magic_raises(self):
        with pytest.raises(WireError, match="bad wire magic"):
            decode_batch(b"JUNKJUNKJUNK")
        with pytest.raises(WireError, match="bad wire magic"):
            decode_dataset(b"")

    def test_malformed_payload_shape_raises(self):
        not_a_batch = MAGIC + pickle.dumps("surprise",
                                           protocol=WIRE_PROTOCOL)
        with pytest.raises(WireError, match="malformed batch payload"):
            decode_batch(not_a_batch)
        with pytest.raises(WireError, match="malformed dataset payload"):
            decode_dataset(not_a_batch)

    def test_column_length_mismatch_raises(self):
        torn = MAGIC + pickle.dumps((3, {"a": [1]}),
                                    protocol=WIRE_PROTOCOL)
        with pytest.raises(WireError, match="column 'a' has 1 values"):
            decode_batch(torn)
