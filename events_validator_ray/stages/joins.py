"""Join patterns (SURVEY.md §2.4 + ray_guide): broadcast small-side lookup
inside ``map_batches`` (never a shuffle), and the explicit bucketed hash join
for two large sides.

The reference's only join is the event_name -> schema lookup (a broadcast of
a tiny dim table, index.js:45); these generalize it to relational shapes a
training-data pipeline meets (dim enrichment, id semi-joins)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import broadcast
from .exchange import canon_key_str, exchange


def _tagged_join(left, right, on: str, left_cols, right_cols, all_cols, join_bucket, prep=None):
    """ONE exchange serves both sides of a join: each side (after the
    optional ``prep(side, batch)``) is padded with nulls to the union schema
    `all_cols`, tagged with its ``__side`` and routed by `on`.
    ``join_bucket(l, r)`` gets one bucket's two sides back as pandas frames.
    The split happens INSIDE Arrow and each side converts to pandas
    separately: the other side's null-padded rows never share a pandas
    column with real values, so int64 payloads (snowflake-scale ids) are
    never degraded to float64 by the union itself."""

    def tag(side: str):
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            b = prep(side, batch) if prep else batch
            return b.reindex(columns=all_cols, fill_value=pd.NA).assign(__side=side)

        fn.__name__ = f"tag_{side}"
        return fn

    both = left.map_batches(tag("l"), batch_format="pandas").union(
        right.map_batches(tag("r"), batch_format="pandas")
    )

    def split(g: pa.Table) -> pd.DataFrame:
        sides = g["__side"]
        l = g.filter(pc.equal(sides, "l")).select(left_cols).to_pandas()
        r = g.filter(pc.equal(sides, "r")).select(right_cols).to_pandas()
        return join_bucket(l, r)

    split.__name__ = join_bucket.__name__
    return exchange(both, on, split, batch_format="pyarrow")


def _nullable_ints(df: pd.DataFrame, skip: tuple[str, ...]) -> pd.DataFrame:
    """Integer payload columns -> pandas nullable Int64 so a left join's
    missing matches pad with pd.NA instead of coercing the whole column (and
    every matched value above 2^53) through float64."""
    for c in df.columns:
        if c not in skip and pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("Int64")
    return df


class BroadcastJoin:
    """map_batches stage: enrich each batch by a small dimension table shipped
    once via ``broadcast.put`` (fetched once per task, indexed on first use —
    the "broadcast small side" pattern)."""

    def __init__(self, dim_ref, on: str, dim_on: str, take_cols: list[str]):
        self.dim_ref = dim_ref  # broadcast handle of a pandas DataFrame
        self.on = on
        self.dim_on = dim_on
        self.take_cols = take_cols
        self._dim: pd.DataFrame | None = None

    def _dim_df(self) -> pd.DataFrame:
        if self._dim is None:
            self._dim = self.dim_ref.get().set_index(self.dim_on)[self.take_cols]
        return self._dim

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        dim = self._dim_df()
        joined = batch.join(dim, on=self.on)  # left join, C-speed index lookup
        return joined


def broadcast_join(ds, dim_df: pd.DataFrame, on: str, dim_on: str, take_cols: list[str]):
    """Left-join `ds` against an in-memory dimension DataFrame, broadcast via
    the object store (one copy cluster-wide, zero shuffle)."""
    return ds.map_batches(
        BroadcastJoin(broadcast.put(dim_df), on, dim_on, take_cols), batch_format="pandas"
    )


def semi_join_filter(ds, keys, on: str, anti: bool = False):
    """Semi/anti join: broadcast the key SET and filter inside map_batches
    (the Bloom-filter slot at extreme key cardinalities)."""
    key_set = broadcast.put(frozenset(keys))

    def flt(batch: pd.DataFrame) -> pd.DataFrame:
        mask = batch[on].isin(key_set.get())
        return batch[~mask] if anti else batch[mask]

    return ds.map_batches(flt, batch_format="pandas")


def arrow_semi_filter(
    ds,
    keys,
    on: str | None = None,
    keep_nulls: bool | None = None,
    anti: bool = False,
    key_of=None,
):
    """`semi_join_filter`'s zero-copy Arrow sibling: broadcast the string key
    set once (``broadcast.put``), membership-filter map-side with `pc.is_in`
    — the slot for hot paths that must not pay an Arrow→pandas conversion
    (the incremental-revalidation `only_convs` filter and the merged-log
    anti-filter).

    - ``anti=True`` inverts membership (SQL NOT EXISTS).
    - ``key_of(table) -> Array`` derives the key from the batch (e.g. the
      conv prefix of event_id) instead of reading column ``on``.
    - ``keep_nulls`` controls NULL-key rows; default is the SQL-natural
      behavior (semi drops them, anti keeps them). The only_convs filter
      passes True explicitly: a row that cannot be addressed by key (NULL
      conv_id) must be conservatively REVALIDATED, never silently dropped —
      the snapshot diff cannot see it.

    ``keys`` may be a ``broadcast.Broadcast`` handle of a ``pa.StringArray``
    (callers filtering MANY datasets against one set broadcast it once)."""
    if on is None and key_of is None:
        raise ValueError("arrow_semi_filter needs `on` or `key_of`")
    if keep_nulls is None:
        keep_nulls = anti
    if not isinstance(keys, broadcast.Broadcast):
        keys = broadcast.put(pa.array(sorted(keys), type=pa.string()))

    def flt(t):
        key = key_of(t) if key_of is not None else t[on]
        member = pc.fill_null(pc.is_in(key, value_set=keys.get()), False)
        mask = pc.invert(member) if anti else member
        if keep_nulls:
            mask = pc.or_(mask, pc.is_null(key))
        else:
            mask = pc.and_(mask, pc.is_valid(key))
        return t.filter(mask)

    flt.__name__ = f"only_{on or 'derived_key'}_filter"
    return ds.map_batches(flt, batch_format="pyarrow")


def asof_join(left, right, on: str, by: str, suffix: str = "_r"):
    """As-of join (backward): for each left row, attach the LAST right row of
    the same `by` key with right.on <= left.on — the operator Ray Data lacks,
    expressed as ONE tagged-union exchange co-locating both sides by `by`,
    then a per-bucket vectorized pandas merge_asof.

    Partitioning assumption: all rows of one `by` key land in one bucket (hash
    co-location) — the same invariant as bucketed_hash_join; salt hot keys
    upstream if a single key outgrows a task. Matches DuckDB
    `ASOF JOIN ... ON l.by = r.by AND l.on >= r.on` when the right side is
    unique per (by, on); pre-aggregate it if not (ties are engine-specific)."""
    left_cols = list(left.schema().names)
    right_cols = list(right.schema().names)
    rmap = {c: (c if c in (on, by) else (c + suffix if c in left_cols else c)) for c in right_cols}
    out_right = [rmap[c] for c in right_cols if c not in (on, by)]
    all_cols = left_cols + out_right

    def prep(side: str, b: pd.DataFrame) -> pd.DataFrame:
        if side == "l":
            return b
        # SQL ASOF equi-condition on `by` never matches NULL: drop right rows
        # with null keys (left nulls stay as unmatched)
        return b[b[by].notna() & b[on].notna()].rename(columns=rmap)

    def asof_bucket(l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        # pandas merge_asof RAISES on null on-keys (and by-nulls are
        # dtype-dependent); SQL ASOF LEFT JOIN keeps such left rows
        # unmatched (NULL never satisfies the equi/inequality condition) —
        # split them out, join the rest, append them back with null right
        # columns
        null_mask = (l[on].isna() | l[by].isna()) if len(l) else l[on].isna()
        null_on = l[null_mask] if len(l) else l
        l = l[~null_mask] if len(l) else l
        l = l.sort_values(on, kind="stable")
        r = _nullable_ints(r.sort_values(on, kind="stable"), skip=(by, on))
        # empty sides keep their Arrow-derived dtypes through merge_asof, so
        # empty buckets emit the same block schema as full ones
        merged = pd.merge_asof(l, r, on=on, by=by, direction="backward")
        if len(null_on):
            for c in out_right:
                null_on = null_on.assign(**{c: pd.NA})
            merged = pd.concat([merged, null_on[all_cols]], ignore_index=True)
        return merged[all_cols]

    return _tagged_join(
        left, right, by, left_cols, [by, on] + out_right, all_cols, asof_bucket, prep
    )


def range_join(left, right, on: str, point: str, lo: str, hi: str):
    """Range (point-in-interval) join: each left row matches right rows of the
    same `on` key whose [lo, hi] interval contains left.`point` (inclusive) —
    e.g. event -> session assignment. One tagged-union exchange co-locating
    by `on`; per bucket a pandas equi-merge on the key followed by the
    interval filter.

    Partitioning assumption: all rows of one key share a bucket; the per-key
    interval count bounds the transient merge fan-out (sessions per user, not
    the corpus)."""
    left_cols = list(left.schema().names)
    right_cols = list(right.schema().names)
    out_right = [c for c in right_cols if c != on]
    clash = set(left_cols) & set(out_right)
    if clash:
        # no implicit suffixing here (unlike asof_join's rename map): a
        # shared payload column would duplicate entries in the tagged-union
        # projection and break the per-bucket merge — fail loudly up front
        raise ValueError(
            f"range_join: column(s) {sorted(clash)} exist on both sides; "
            "rename the right side's payload columns before joining "
            f"(only the key {on!r} may be shared)."
        )
    all_cols = left_cols + out_right

    def prep(side: str, b: pd.DataFrame) -> pd.DataFrame:
        # SQL equi-join semantics: NULL keys never match (inner join — drop
        # on both sides; see bucketed_hash_join)
        return b[b[on].notna()]

    def range_bucket(l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        m = l.merge(r, on=on, how="inner")  # typed even when a side is empty
        keep = (m[point] >= m[lo]) & (m[point] <= m[hi])
        return m[keep][all_cols]

    return _tagged_join(
        left, right, on, left_cols, [on] + out_right, all_cols, range_bucket, prep
    )


class BloomFilter:
    """Vectorized Bloom filter over 64-bit key hashes (double hashing,
    Kirsch-Mitzenmacher): k probe positions derived from one `hash64` pass +
    a splitmix64 remix — no per-key Python. Mergeable by OR, so partial
    filters built per block combine associatively (same pattern as the
    sketch plane). Size: 2^n_bits_log2 bits (default 2^22 = 512 KiB —
    ~0.6% FP at 2M keys with k=4)."""

    def __init__(self, n_bits_log2: int = 22, k: int = 4):
        self.n_bits_log2 = n_bits_log2
        self.m = np.uint64(1 << n_bits_log2)
        self.k = k
        self.bits = np.zeros((1 << n_bits_log2) // 8, dtype=np.uint8)

    @staticmethod
    def _h2(h1: np.ndarray) -> np.ndarray:
        # one shared splitmix64 finalizer (stages/sampling.py), forced odd
        # so the double-hash stride cycles the full table
        from .sampling import splitmix64

        return splitmix64(h1) | np.uint64(1)

    def _positions(self, keys) -> np.ndarray:
        from ..stages.sketches import hash64

        h1 = hash64(np.asarray(keys, dtype=object)).astype(np.uint64)
        h2 = self._h2(h1)
        with np.errstate(over="ignore"):
            return np.stack(
                [((h1 + np.uint64(i) * h2) % self.m).astype(np.int64) for i in range(self.k)]
            )

    def add(self, keys) -> "BloomFilter":
        pos = self._positions(keys)
        np.bitwise_or.at(self.bits, pos >> 3, np.uint8(1) << (pos & 7).astype(np.uint8))
        return self

    def contains(self, keys) -> np.ndarray:
        pos = self._positions(keys)
        hit = (self.bits[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1
        return hit.all(axis=0).astype(bool)

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        np.bitwise_or(self.bits, other.bits, out=self.bits)
        return self


def build_bloom(keys_ds, on: str, n_bits_log2: int = 22, k: int = 4) -> BloomFilter:
    """Distributed Bloom build: one partial filter per BLOCK (whole-block
    batches — the default 1024-row batches would emit one m/8-byte payload
    per thousand keys), then a distributed OR-combine stage collapses every
    ~64 partials into one before the driver pull — the pull is
    ceil(blocks/64) payloads, not blocks, and the key SET never materializes
    anywhere. This is the library's one ``repartition`` combine: a 512 KB
    partial (at the default 2^22 bits) is 32× the 16 KB HLL partial that
    ``stages/fold.py`` folds per block on the driver, so the fan-in is
    collapsed in the cluster first."""
    import pickle

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        b = BloomFilter(n_bits_log2, k).add(canon_key_str(df[on]))
        return pd.DataFrame({"payload": [pickle.dumps(b.bits)]})

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            # empty partition (repartition can make them; whether the UDF
            # runs on empty blocks is Ray-version-dependent) — emit zero
            # rows, never a pickled None the driver OR can't consume
            return pd.DataFrame({"payload": pd.Series([], dtype=object)})
        acc = None
        for p in df["payload"]:
            bits = pickle.loads(p)
            acc = bits if acc is None else np.bitwise_or(acc, bits)
        return pd.DataFrame({"payload": [pickle.dumps(acc)]})

    rows = (
        keys_ds.select_columns([on])
        .map_batches(partial, batch_format="pandas", batch_size=None)
        # repartition is a REAL exchange barrier: without it Ray fuses the
        # combine into the partial task (same-task re-batching) and the
        # driver still pulls one payload per block — verified empirically
        .repartition(8)
        .map_batches(combine, batch_format="pandas", batch_size=None)
        .take_all()
    )
    out = BloomFilter(n_bits_log2, k)
    for r in rows:
        np.bitwise_or(out.bits, pickle.loads(r["payload"]), out=out.bits)
    return out


def bloom_semi_join(
    left,
    keys_ds,
    on: str,
    n_bits_log2: int = 22,
    k: int = 4,
    keys_distinct: bool = False,
):
    """EXACT semi-join for key sets too large to broadcast exactly: a Bloom
    prefilter (tiny broadcast, built distributed) drops the vast majority of
    non-matching rows map-side, then a bucketed co-shuffle of only the
    SURVIVORS against the (deduplicated) key set removes the Bloom's false
    positives. Result is exactly `left WHERE left.on IN keys` (SQL twin), at
    a shuffle volume of survivors + distinct keys instead of all of left.

    This is the scale slot `semi_join_filter` names for extreme key
    cardinalities; use `semi_join_filter` when the key set comfortably fits
    an object-store broadcast."""
    bloom = broadcast.put(build_bloom(keys_ds, on, n_bits_log2, k))

    def prefilter(df: pd.DataFrame) -> pd.DataFrame:
        return df[bloom.get().contains(canon_key_str(df[on]))]

    survivors = left.map_batches(prefilter, batch_format="pandas")
    # exact pass: the inner bucketed join of survivors against the DISTINCT
    # key set IS the semi-join (deduplicated right side -> no row
    # multiplication, output = left columns) — one shared join machinery,
    # not a second tagged-union implementation
    if keys_distinct:
        # caller guarantees uniqueness (e.g. keys came out of a groupby) —
        # skip a second full shuffle of what may be the largest key set here
        distinct_keys = keys_ds.select_columns([on])
    else:
        # bucketed dedup, NOT groupby(on).aggregate(Count): the key set's
        # distinct cardinality scales with the corpus and Ray's sort-based
        # aggregate degrades with group count (BASELINE.md addendum)
        from .assembly import bucketed_distinct_values

        distinct_keys = bucketed_distinct_values(keys_ds, on)
    return bucketed_hash_join(survivors, distinct_keys, on=on)


def bloom_anti_join(
    left,
    keys_ds,
    on: str,
    n_bits_log2: int = 22,
    k: int = 4,
    keys_distinct: bool = False,
):
    """EXACT anti-join — `left WHERE NOT EXISTS (key match)` — the orphan /
    foreign-key-violation scan of the referential plane. NULL-key left rows
    are KEPT (SQL: NULL never matches; NOT IN would return them differently,
    so the twin must be written with NOT EXISTS).

    Scale shape: a Bloom filter over the key set is built distributed and
    broadcast once; left rows that MISS the Bloom are definitely unmatched and
    stream straight to the output with ZERO shuffle, while Bloom HITS (true
    members + false positives) co-shuffle against the distinct key set in a
    bucketed LEFT join whose unmatched rows are kept. A mostly-orphan scan
    shuffles almost nothing; a mostly-member scan shuffles ~the member rows
    (the exact check is unavoidable there). The two streams are two lazy
    passes over `left` — re-reading a streaming source twice is deliberately
    preferred to materializing it or to shuffling the miss rows through the
    join."""
    bloom = broadcast.put(build_bloom(keys_ds, on, n_bits_log2, k))

    def _mask(df: pd.DataFrame) -> pd.Series:
        # NULL keys never match any key -> definite keeps, routed to the
        # miss stream (the hit stream then carries no NULL keys at all)
        return pd.Series(
            bloom.get().contains(canon_key_str(df[on])) & df[on].notna().to_numpy(),
            index=df.index,
        )

    def misses_fn(df: pd.DataFrame) -> pd.DataFrame:
        return df[~_mask(df)]

    misses_fn.__name__ = "bloom_misses"

    def hits_fn(df: pd.DataFrame) -> pd.DataFrame:
        return df[_mask(df)]

    hits_fn.__name__ = "bloom_hits"

    misses = left.map_batches(misses_fn, batch_format="pandas")
    hits = left.map_batches(hits_fn, batch_format="pandas")

    if keys_distinct:
        distinct_keys = keys_ds.select_columns([on])
    else:
        # same bucketed dedup rationale as bloom_semi_join
        from .assembly import bucketed_distinct_values

        distinct_keys = bucketed_distinct_values(keys_ds, on)
    marked = distinct_keys.map_batches(
        lambda df: df.assign(__m=np.int8(1)), batch_format="pandas"
    )
    left_cols = list(left.schema().names)
    joined = bucketed_hash_join(hits, marked, on=on, how="left")

    def keep_unmatched(df: pd.DataFrame) -> pd.DataFrame:
        return df.loc[df["__m"].isna(), left_cols]

    keep_unmatched.__name__ = "keep_unmatched"
    return misses.union(joined.map_batches(keep_unmatched, batch_format="pandas"))


def bucketed_hash_join(left, right, on: str, how: str = "inner"):
    """Both-sides-large join: co-group both sides by `on` in ONE tagged-union
    exchange and pandas-merge inside each bucket (the portable partitioned
    hash join from the guide; salt hot keys upstream if skewed)."""
    left_cols = list(left.schema().names)
    right_cols = list(right.schema().names)
    all_cols = left_cols + [c for c in right_cols if c not in left_cols]

    def prep(side: str, b: pd.DataFrame) -> pd.DataFrame:
        # SQL equi-join semantics: NULL keys never match. pandas merge DOES
        # match NaN==NaN, so drop null-key rows before the shuffle — right
        # side always; left side too for inner joins (left/outer joins keep
        # left NULL-key rows as unmatched NA-padded output).
        return b[b[on].notna()] if side == "r" or how == "inner" else b

    def join_bucket(l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        if how != "inner":
            r = _nullable_ints(r, skip=(on,))
        # pandas merge keeps both sides' dtypes when one is empty, so empty
        # buckets emit the same block schema as full ones (no schema flips)
        return l.merge(r, on=on, how=how)

    return _tagged_join(left, right, on, left_cols, right_cols, all_cols, join_bucket, prep)


def full_outer_join(left, right, on: str):
    """FULL OUTER join for two large sides: every row of both inputs appears
    once — matched rows merged, unmatched rows NA-padded on the other side's
    columns. Same single tagged-union exchange as ``bucketed_hash_join``.

    SQL NULL-key semantics: a NULL key never equals anything, including
    another NULL — but FULL OUTER still KEEPS those rows as unmatched output.
    pandas ``merge`` would happily match NaN == NaN, so each side's null-key
    rows are outer-merged against the typed empty other side: they come out
    unmatched through the same kernel, with no separate padding path that
    could flip block schemas.

    The reconciliation join (feed A vs feed B: what's only in A, only in B,
    or in both?) — the recon shape Ray Data's API doesn't express natively."""
    left_cols = list(left.schema().names)
    right_cols = list(right.schema().names)
    all_cols = left_cols + [c for c in right_cols if c not in left_cols]

    def full_outer_bucket(l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        # BOTH sides can be the unmatched one: nullable ints everywhere so
        # NA padding never degrades int64 payloads through float64
        l = _nullable_ints(l, skip=(on,))
        r = _nullable_ints(r, skip=(on,))
        ln, rn = l[on].isna(), r[on].isna()
        out = l[~ln].merge(r[~rn], on=on, how="outer")
        parts = [out]
        if ln.any():
            parts.append(l[ln].merge(r.iloc[:0], on=on, how="outer"))
        if rn.any():
            parts.append(l.iloc[:0].merge(r[rn], on=on, how="outer"))
        return pd.concat(parts, ignore_index=True) if len(parts) > 1 else out

    return _tagged_join(left, right, on, left_cols, right_cols, all_cols, full_outer_bucket)
