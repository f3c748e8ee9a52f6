"""The one keyed exchange: every hash-bucket shuffle of the engine.

An exact reduce over a key whose cardinality scales with the corpus runs
as combine → bucket → reduce:

- ``combine_fn`` (optional) collapses each whole block to partial rows
  map-side, so a hot key costs at most one row per block (*DS2*, ICDE 2021).
- Every row gets ``bucket = hash(canonical key) % bucket_count()``. Equal
  keys share a bucket whatever dtype their block carries them in: an int64
  key and the same key as an integral float64 (the int64-with-nulls
  Arrow->pandas round trip) hash alike, and every NULL form hashes alike.
  String keys hash from their Arrow UTF-8 bytes and offsets in one
  vectorized numpy pass (``string``, ``large_string`` or a dictionary of
  them, with no pandas round trip); a pandas object column is converted to
  Arrow and hashed the same way, so a key hashes alike in every block.
  Numeric keys keep ``sketches.hash64``, which also stays the hash of the
  HLL and Bloom sketches: only bucket routing uses the byte hash.
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
import pyarrow.compute as pc

from .sketches import hash64

BUCKET = "__bucket"
_NULL_HASH = np.uint64(0x9E3779B97F4A7C15)
_MIX = np.uint64(0x100000001B3)
#: strings per ``_utf8_hash`` call, so its per-byte temporaries stay in
#: cache: 120k 19-byte keys hash in ~7 ms in slices, ~11 ms whole (one core)
_HASH_ROWS = 4096


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


def _splitmix(z: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer over a uint64 array."""
    z = z + _NULL_HASH  # splitmix64's increment, the golden-ratio gamma
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _utf8_hash(a: pa.Array) -> np.ndarray:
    """uint64 hash of each value of a ``string``/``large_string`` array from
    its UTF-8 bytes, NULL slots included (the caller masks them). Each byte
    contributes ``(byte + 1) * w[its position in the string]`` (odd
    pseudo-random weights), ``np.add.reduceat`` sums each string's bytes,
    and splitmix64 finishes sum and length: O(total bytes) numpy work, no
    loop over strings or over string lengths."""
    if len(a) == 0:
        return np.empty(0, np.uint64)
    width = np.int64 if pa.types.is_large_string(a.type) else np.int32
    off = np.frombuffer(a.buffers()[1], width)[a.offset : a.offset + len(a) + 1].astype(np.int64)
    lens = np.diff(off)
    data = np.frombuffer(a.buffers()[2], np.uint8)[off[0] : off[-1]]
    off -= off[0]
    pos = np.repeat(off[:-1], lens)
    np.subtract(np.arange(len(data), dtype=np.int64), pos, out=pos)
    c = (_splitmix(np.arange(lens.max(), dtype=np.uint64)) | np.uint64(1))[pos]
    b = data.astype(np.uint64)
    b += np.uint64(1)
    c *= b
    sums = np.zeros(len(a), np.uint64)
    full = lens > 0  # reduceat would give an empty string its successor's byte
    if len(data):
        sums[full] = np.add.reduceat(c, off[:-1][full])
    return _splitmix(sums ^ (lens.astype(np.uint64) * _MIX))


def _arrow_str_hash(a: pa.Array) -> np.ndarray:
    """``_utf8_hash`` of an Arrow ``string`` or ``large_string`` array,
    sliced or not, or of a dictionary of them (its dictionary is hashed once
    and taken by index); NULL gets ``_NULL_HASH``."""
    if pa.types.is_dictionary(a.type):
        h = np.full(len(a), _NULL_HASH, dtype=np.uint64)
        ok = a.is_valid().to_numpy(zero_copy_only=False)
        idx = pc.fill_null(a.indices, 0).to_numpy()
        h[ok] = _arrow_str_hash(a.dictionary)[idx[ok]]
        return h
    h = np.concatenate(
        [np.empty(0, np.uint64)]
        + [_utf8_hash(a.slice(i, _HASH_ROWS)) for i in range(0, len(a), _HASH_ROWS)]
    )
    if a.null_count:
        h[a.is_null().to_numpy(zero_copy_only=False)] = _NULL_HASH
    return h


def _str_hash(values: np.ndarray) -> np.ndarray:
    """``_arrow_str_hash`` of an object array converted to Arrow: ``str``
    (and ``bytes``) elements as they are, any other object by its ``str()``
    form (the caller masks every NULL form, rendered or not)."""
    try:
        a = pa.array(values, pa.large_string(), from_pandas=True)
    except (pa.ArrowInvalid, pa.ArrowTypeError):
        a = pa.array([str(v) for v in values], pa.large_string())
    return _arrow_str_hash(a)


def _column_hash(s) -> np.ndarray:
    """uint64 hash of one key column (a pandas Series or an Arrow
    ChunkedArray), equal for equal canonical keys: integers (and integral
    floats) hash by int64 value and other floats by value (both with
    ``sketches.hash64``), strings by their UTF-8 bytes (``_utf8_hash``, read
    straight from Arrow buffers), everything else by its string form; every
    NULL form alike."""
    if isinstance(s, pa.ChunkedArray):
        t = s.type.value_type if pa.types.is_dictionary(s.type) else s.type
        if not (pa.types.is_string(t) or pa.types.is_large_string(t)):
            return _column_hash(s.to_pandas())
        return np.concatenate(
            [np.empty(0, np.uint64)] + [_arrow_str_hash(c) for c in s.chunks]
        )
    if pd.api.types.is_integer_dtype(s):
        h = hash64(s.to_numpy(dtype=np.int64, na_value=0))
    elif pd.api.types.is_float_dtype(s):
        v = s.to_numpy(dtype=np.float64, na_value=np.nan)
        integral = np.isfinite(v) & (v == np.floor(v)) & (np.abs(v) < 2**63)
        h = hash64(v)
        h[integral] = hash64(v[integral].astype(np.int64))
    else:
        h = _str_hash(s.to_numpy() if s.dtype == object else s.astype(str).to_numpy())
    h[s.isna().to_numpy()] = _NULL_HASH
    return h


def _add_bucket(batch, keys: list[str], n: int):
    """Append the ``BUCKET`` column to a pandas frame or an Arrow table."""
    h = None
    for k in keys:
        hk = _column_hash(batch[k])
        h = hk if h is None else (h * _MIX) ^ hk
    b = (h % np.uint64(n)).astype(np.int64)
    if isinstance(batch, pa.Table):
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
