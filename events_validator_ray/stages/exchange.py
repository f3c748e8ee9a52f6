"""The one keyed exchange: every hash-bucket shuffle of the engine.

An exact reduce over a key whose cardinality scales with the corpus runs
as combine → bucket → reduce:

- ``combine_fn`` (optional) collapses each whole block to partial rows
  map-side, so a hot key costs at most one row per block (*DS2*, ICDE 2021).
- Every row gets ``bucket = hash(canonical key) % bucket_count()``. Equal
  keys share a bucket whatever dtype their block carries them in: an int64
  key and the same key as an integral float64 (the int64-with-nulls
  Arrow->pandas round trip) hash alike, and every NULL form hashes alike.
- A range-partitioned sort on the bucket column with the boundaries
  given (``1 .. n-1``: the bucket ids are known, so there is no sampling
  pass, unlike ``groupby(bucket).map_groups``) puts each bucket in one
  block, and ``reduce_fn`` runs once per non-empty block: one call holds
  every row of the keys its bucket owns, thousands of keys per call,
  vectorized. A ``groupby(key).aggregate()`` instead pays Ray's
  sort-aggregate cost per GROUP (BASELINE.md addendum: 28 s at 2k groups,
  ~1070 s at 592k).

The bucket count is ``bucket_count()`` = 4 × the session's CPUs, read once
on the driver when the plan is built (blocks hashed with different counts
would split a key across buckets). No caller sets it.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .sketches import hash64

BUCKET = "__bucket"
_NULL_HASH = np.uint64(0x9E3779B97F4A7C15)
_MIX = np.uint64(0x100000001B3)


def session_cpus() -> int:
    """The running session's CPU count, at least 1 (never calls ``ray.init``)."""
    import ray

    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def bucket_count() -> int:
    """4 × the running session's CPU count."""
    return 4 * session_cpus()


def canon_key_str(s: pd.Series) -> np.ndarray:
    """Canonical string form of a key: integral floats render as int strings
    so a key that arrives int64 in one block and float64 in another renders
    '5', never '5.0'. NaN keys keep a stable sentinel."""
    if pd.api.types.is_float_dtype(s):
        v = s.to_numpy()
        out = np.empty(len(v), dtype=object)
        finite = np.isfinite(v)
        integral = finite & (v == np.floor(v)) & (np.abs(v) < 2**63)
        out[integral] = v[integral].astype(np.int64).astype(str)
        rest = ~integral
        out[rest] = v[rest].astype(str)
        return out
    return s.astype(str).to_numpy()


def _column_hash(s: pd.Series) -> np.ndarray:
    """uint64 hash of one key column, equal for equal canonical keys:
    integers (and integral floats) hash by int64 value, other floats by
    value, everything else by its string form; every NULL form alike."""
    if pd.api.types.is_integer_dtype(s):
        h = hash64(s.to_numpy(dtype=np.int64, na_value=0))
    elif pd.api.types.is_float_dtype(s):
        v = s.to_numpy(dtype=np.float64, na_value=np.nan)
        integral = np.isfinite(v) & (v == np.floor(v)) & (np.abs(v) < 2**63)
        h = hash64(v)
        h[integral] = hash64(v[integral].astype(np.int64))
    elif s.dtype == object:
        # hash_array hashes str elements directly and str()-renders others
        h = hash64(s.to_numpy())
    else:
        h = hash64(canon_key_str(s))
    h[s.isna().to_numpy()] = _NULL_HASH
    return h


def _add_bucket(batch, keys: list[str], n: int):
    """Append the ``BUCKET`` column to a pandas frame or an Arrow table."""
    arrow = isinstance(batch, pa.Table)
    h = None
    for k in keys:
        hk = _column_hash(batch[k].to_pandas() if arrow else batch[k])
        h = hk if h is None else (h * _MIX) ^ hk
    b = (h % np.uint64(n)).astype(np.int64)
    if arrow:
        return batch.append_column(BUCKET, pa.array(b))
    return batch.assign(**{BUCKET: b})


def exchange(ds, key, reduce_fn, combine_fn=None, batch_format="pandas"):
    """Route every row of ``ds`` to the bucket of its ``key`` (a column name
    or a list of them) and run ``reduce_fn`` once per bucket, on a frame in
    ``batch_format`` that holds every row of the keys the bucket owns (the
    bucket column already dropped). ``combine_fn``, if given, first maps each
    whole block (pandas) to the partial rows that get routed."""
    keys = [key] if isinstance(key, str) else list(key)
    n = bucket_count()

    def route(batch):
        if combine_fn is not None:
            batch = combine_fn(batch)
        return _add_bucket(batch, keys, n)

    def reduce(g):
        if len(g) == 0:  # a bucket no key landed in
            return
        if isinstance(g, pa.Table):
            yield reduce_fn(g.drop_columns([BUCKET]))
        else:
            yield reduce_fn(g.drop(columns=[BUCKET]))

    route.__name__ = getattr(combine_fn, "__name__", "route") + "_to_bucket"
    reduce.__name__ = getattr(reduce_fn, "__name__", type(reduce_fn).__name__)
    return (
        ds.map_batches(route, batch_format="pandas" if combine_fn else "pyarrow")
        # at least one boundary: with none, Ray samples its own
        .sort(BUCKET, boundaries=list(range(1, max(n, 2))))
        .map_batches(reduce, batch_size=None, batch_format=batch_format)
    )
