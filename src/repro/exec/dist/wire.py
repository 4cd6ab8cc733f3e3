"""Compact pickled columnar wire format for exchanges and spill files.

Every byte that crosses a process boundary in the distributed runtime —
shuffle partitions spilled to disk, final outputs shipped back over the
worker pipe — is one *wire blob*: a fixed magic/version header followed
by a pickle (protocol pinned to :data:`WIRE_PROTOCOL`) of the payload in
**columnar** layout.  Column lists serialize as flat homogeneous Python
lists, which pickle at C speed; row-dict layouts would pay one dict per
row on both ends.

Two payload shapes exist:

* a bare :class:`~repro.exec.columnar.batch.ColumnBatch` —
  ``(n_rows, {column: [values...]})`` — the unit the property tests
  round-trip;
* a dataset — ``(schema, props, [batch payload, ...])`` — what workers
  write per spilled partition and what output blobs carry.

Encoding accepts row or columnar datasets (row partitions — output
files — are transposed on the way in); decoding always yields columnar
objects, which the executor consumes with no conversion at all.

The pickle protocol is pinned, not "highest available", so spill files
and worker replies stay byte-compatible between the Python minor
versions a mixed cluster might run.
"""

from __future__ import annotations

import pickle

from ..columnar.batch import ColumnarDataset, ColumnBatch

#: Pickle protocol every wire blob is written with.  Protocol 4 is
#: supported from Python 3.4 on; do not bump it casually — readers and
#: writers of one spill directory must agree.
WIRE_PROTOCOL = 4

#: Leading magic of every wire blob; the trailing digit is the format
#: version.  A mismatch means the blob is not ours (or from a future
#: incompatible format) and must fail loudly, never deserialize.
MAGIC = b"RPRW1\n"


class WireError(ValueError):
    """A wire blob failed structural validation."""


def _dumps(payload) -> bytes:
    return MAGIC + pickle.dumps(payload, protocol=WIRE_PROTOCOL)


def _loads(blob: bytes):
    if not blob.startswith(MAGIC):
        raise WireError(
            f"bad wire magic {blob[:len(MAGIC)]!r} (expected {MAGIC!r})"
        )
    return pickle.loads(blob[len(MAGIC):])


def _batch_payload(partition, names):
    """One partition (row list or ColumnBatch) -> payload tuple."""
    if isinstance(partition, ColumnBatch):
        return partition.n_rows, partition.columns
    batch = ColumnBatch.from_rows(names, partition)
    return batch.n_rows, batch.columns


def encode_batch(batch: ColumnBatch) -> bytes:
    """Serialize one :class:`ColumnBatch` to wire bytes."""
    return _dumps((batch.n_rows, batch.columns))


def decode_batch(blob: bytes) -> ColumnBatch:
    """Deserialize wire bytes produced by :func:`encode_batch`."""
    payload = _loads(blob)
    try:
        n_rows, columns = payload
    except (TypeError, ValueError) as exc:
        raise WireError(f"malformed batch payload: {payload!r}") from exc
    for name, values in columns.items():
        if len(values) != n_rows:
            raise WireError(
                f"column {name!r} has {len(values)} values "
                f"for a {n_rows}-row batch"
            )
    return ColumnBatch(columns, n_rows)


def encode_dataset(dataset) -> bytes:
    """Serialize a row or columnar dataset to wire bytes.

    Row partitions are transposed to columnar layout on the way in, so
    the on-disk format is identical whichever layout the data had.
    """
    names = dataset.schema.names
    parts = [_batch_payload(p, names) for p in dataset.partitions]
    return _dumps((dataset.schema, dataset.props, parts))


def decode_dataset(blob: bytes) -> ColumnarDataset:
    """Deserialize wire bytes produced by :func:`encode_dataset`."""
    payload = _loads(blob)
    try:
        schema, props, parts = payload
    except (TypeError, ValueError) as exc:
        raise WireError(f"malformed dataset payload: {payload!r}") from exc
    return ColumnarDataset(
        schema,
        [ColumnBatch(columns, n_rows) for n_rows, columns in parts],
        props,
    )
