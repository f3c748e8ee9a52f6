"""The one bounded fold: every reduction whose result stays small.

A reduction whose distinct keys are bounded whatever the corpus size (days ×
fields, roles², funnel stages, k × labels, histogram bins, sketch columns)
needs no Ray barrier. Each block sends at most one partial row per key
(*DS2*, ICDE 2021: the map-side collapse; the partial runs once per whole
block, ``batch_size=None``), and the driver folds the rows as they stream
in, so it holds the result plus at most one window of partials:

- ``sum_by_key``: int64 columns summed by key with Arrow ``group_by``. The
  result is a typed ``pa.Table`` sorted by its keys, as Ray's sort-based
  aggregate sorted them; a NULL key and a NaN float key each form one group,
  as SQL ``GROUP BY`` does, and sort last. The driver re-folds its window
  after every FOLD_ROWS partial rows.
- ``fold_payloads`` / ``PayloadFold``: opaque pickled partials (sketches,
  k-means sums, histograms) merged per key. Once the held payloads pass
  FOLD_WINDOW_BYTES, one combine level merges them to one payload per key.
  Payloads merge in the order of their bytes, so the result depends only on
  the set of partials, never on the order the blocks finish in (t-digest and
  float-sum merges are order-sensitive).
- ``dataset``: a driver-built table as a Dataset whose ``to_pandas`` keeps
  its columns when empty.

Keys whose cardinality scales with the corpus go through
``exchange.exchange`` instead; its per-bucket partials may be folded here.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable

import pyarrow as pa

#: partial-count rows the driver buffers before folding them into its
#: running sum: driver memory stays within the output plus one window
FOLD_ROWS = 65_536

#: payload bytes the driver holds before the one combine level merges them
#: into one payload per key: driver memory stays one window whatever the
#: block count (a 16 KB HLL partial per block is a multi-GB fan-in at
#: 10^12-turn block counts if held whole)
FOLD_WINDOW_BYTES = 64 << 20


def _per_block(ds, fn):
    """``fn`` (Arrow table in, Arrow table out) once per whole block."""
    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None)


def _sum(parts: list[pa.Table], keys: list[str], cols: list[str]) -> pa.Table:
    t = pa.concat_tables(parts)
    g = t.group_by(keys, use_threads=False).aggregate([(c, "sum") for c in cols])
    return g.select([*keys, *(f"{c}_sum" for c in cols)]).rename_columns([*keys, *cols])


def sum_by_key(ds, schema: pa.Schema, keys: list[str], partial: Callable | None = None) -> pa.Table:
    """The rows of ``ds`` — or, given ``partial``, of ``partial`` run once
    per block — summed by ``keys``: a table of ``schema`` sorted by its
    keys, whose every non-key column is an int64 sum. Each partial is cast
    to ``schema``; a Dataset with no block gives ``schema``'s empty table."""
    cols = [n for n in schema.names if n not in keys]
    parts = ds if partial is None else _per_block(ds, partial)
    acc, window, rows = [schema.empty_table()], [], 0
    for part in parts.iter_batches(batch_size=None, batch_format="pyarrow"):
        window.append(part.select(schema.names).cast(schema))
        rows += part.num_rows
        if rows >= FOLD_ROWS:
            acc, window, rows = [_sum(acc + window, keys, cols)], [], 0
    return _sum(acc + window, keys, cols).sort_by([(k, "ascending") for k in keys])


def _merge_method(a, b):
    return a.merge(b)


class PayloadFold:
    """Driver-side fold of (*keys, payload) rows as they stream in; rows
    with a null payload are skipped. ``merge(a, b)`` combines two unpickled
    payloads (default ``a.merge(b)``). ``result()`` -> {key tuple: merged}."""

    def __init__(self, keys: tuple[str, ...] = (), merge: Callable[[Any, Any], Any] = _merge_method):
        self.keys, self.merge = tuple(keys), merge
        self.held: dict[tuple, list[bytes]] = {}
        self.held_bytes = 0

    def add(self, rows: pa.Table) -> None:
        keys = zip(*(rows[k].to_pylist() for k in self.keys)) if self.keys else [()] * rows.num_rows
        for key, payload in zip(keys, rows["payload"].to_pylist()):
            if payload is not None:
                self.held.setdefault(key, []).append(payload)
                self.held_bytes += len(payload)
        if self.held_bytes > FOLD_WINDOW_BYTES:
            self._combine()

    def _combine(self) -> None:
        self.held = {k: [pickle.dumps(v)] for k, v in self.result().items()}
        self.held_bytes = sum(len(p[0]) for p in self.held.values())

    def result(self) -> dict[tuple, Any]:
        out = {}
        for k in sorted(self.held):
            merged = None
            for b in sorted(self.held[k]):
                obj = pickle.loads(b)
                merged = obj if merged is None else self.merge(merged, obj)
            out[k] = merged
        return out


def fold_payloads(ds, partial: Callable, keys: tuple[str, ...] = (), merge=_merge_method) -> dict[tuple, Any]:
    """``partial`` once per block, emitting (*keys, payload) rows, folded on
    the driver by ``PayloadFold``."""
    fold = PayloadFold(keys, merge)
    for rows in _per_block(ds, partial).iter_batches(batch_size=None, batch_format="pyarrow"):
        fold.add(rows)
    return fold.result()


def dataset(t: pa.Table):
    """``t`` as a Dataset whose ``to_pandas`` keeps the columns when empty
    (Ray skips empty blocks, so a plain empty Dataset's frame has none)."""
    import ray.data as rd
    from ray.data.dataset import MaterializedDataset

    ds = rd.from_arrow(t)
    if t.num_rows:
        return ds

    class EmptyResult(MaterializedDataset):
        def to_pandas(self, limit=None):
            return t.to_pandas()

    return rd.Dataset.copy(ds, _as=EmptyResult)
