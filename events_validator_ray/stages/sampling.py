"""Deterministic sampling operators (training-data ops; the reference's cost
mitigation is "sample events upstream in GTM triggers", README.md:62-64 —
here sampling is a first-class, reproducible engine operator instead of a
client-side trigger setting).

Both operators are pure functions of the data (no RNG), so reruns, resumed
runs and the DuckDB oracle all select the identical rows:

- mod_sample: systematic 1-in-(m/k) sampling on an integer id column
  (`id % m < k`) — a map-only filter, zero shuffle.
- stratified_sample: first `n` rows per stratum under a deterministic total
  order — per-batch combiner (keep <= n per key per batch) bounds the
  shuffle to blocks x keys x n rows, then one groupby(key) finishes
  globally. SQL twin: ROW_NUMBER() OVER (PARTITION BY key ORDER BY ord) <= n.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import broadcast


def mod_sample(ds, id_col: str, modulus: int = 100, keep_below: int = 1):
    """Keep rows where `id_col % modulus < keep_below` (sampling rate
    keep_below/modulus). Deterministic, map-only, SQL-twinnable."""

    def flt(t: pa.Table) -> pa.Table:
        import numpy as np

        ids = (
            pc.cast(t[id_col], pa.int64()).combine_chunks().to_numpy(zero_copy_only=False)
        )
        # fmod keeps the dividend's sign (C / SQL % semantics) — numpy's `%`
        # would keep -9 % 10 == 1 and silently diverge from the twin on
        # negative ids
        return t.filter(pa.array(np.fmod(ids, modulus) < keep_below))

    return ds.map_batches(flt, batch_format="pyarrow")


def stratified_sample(ds, key: str, order_col: str, n_per_key: int):
    """First `n_per_key` rows per `key` stratum ordered by `order_col`
    (which must be a deterministic total order within each stratum — a
    unique id). Balanced-per-class selection for training-data curation.

    Scale shape: the per-batch combiner already reduces each block to at
    most n rows per stratum it contains, so the single groupby(key) shuffle
    moves O(blocks x strata x n) rows — never the corpus."""

    def combiner(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.sort_values([key, order_col], kind="stable").groupby(key, sort=False).head(n_per_key)
        )

    combiner.__name__ = "stratified_combiner"

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.sort_values([key, order_col], kind="stable").groupby(key, sort=False).head(n_per_key)
        )

    finish.__name__ = "stratified_finish"
    return (
        ds.map_batches(combiner, batch_format="pandas")
        .groupby(key)
        .map_groups(finish, batch_format="pandas")
    )


def mixture_sample(ds, group_col: str, id_col: str, rates: dict, scale: int = 1000):
    """Deterministic domain-mixture sampling: keep a row iff
    `id % scale < rates[group] * scale` — the 'reweight sources into a
    training mixture' curation step (e.g. web 10%, books 100%). Pure function
    of the data (systematic mod selection per group, no RNG), map-only, zero
    shuffle; groups absent from `rates` are dropped (rate 0).
    SQL twin: CASE over the same integer thresholds."""
    import numpy as np

    thresholds = {g: int(round(r * scale)) for g, r in rates.items()}

    def flt(df: pd.DataFrame) -> pd.DataFrame:
        # NULL ids drop (the SQL twin's `id % scale` is NULL -> row dropped;
        # mod_sample does the same) — and a float64 id column carrying NaN
        # (int64-with-nulls Arrow->pandas) would crash the int64 cast
        df = df[df[id_col].notna()]
        thr = df[group_col].map(thresholds).fillna(0).to_numpy(dtype=np.int64)
        ids = df[id_col].to_numpy(dtype=np.int64)
        return df[np.fmod(ids, scale) < thr]

    flt.__name__ = "mixture_sample"
    return ds.map_batches(flt, batch_format="pandas")


def group_topk(ds, key: str, score_col: str, id_col: str, k: int):
    """Best `k` rows per `key` group by (score_col DESC, id_col ASC) — the
    'keep the k best documents per source/cluster' balancing selector
    (complement of stratified_sample's first-n-by-id). Deterministic: the
    (score DESC, id ASC) pair is a total order.

    Scale shape: identical to stratified_sample — a per-batch combiner keeps
    ≤ k rows per key per block, so the single groupby(key) shuffle moves
    O(blocks × keys × k) rows, never the corpus.
    SQL twin: ROW_NUMBER() OVER (PARTITION BY key ORDER BY score DESC, id) <= k."""

    def head_per_key(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.sort_values([key, score_col, id_col], ascending=[True, False, True], kind="stable")
            .groupby(key, sort=False)
            .head(k)
        )

    combiner = head_per_key
    combiner.__name__ = "group_topk_combiner"

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        return head_per_key(g)

    finish.__name__ = "group_topk_finish"
    return (
        ds.map_batches(combiner, batch_format="pandas")
        .groupby(key)
        .map_groups(finish, batch_format="pandas")
    )


def distinct_upper_bound(ds, col: str) -> int:
    """Σ per-block distinct values of `col` — a one-int-per-block probe
    (driver pull = block count). Upper-bounds BOTH the global distinct count
    and the partial-row volume a bucketed value count would shuffle, so it is
    the right quantity to gate value-count-based operators on. One cheap
    projected scan; exact per block via pc.count_distinct."""

    def block_distinct(t: pa.Table) -> pa.Table:
        vals = t[col].drop_null() if t.num_rows else None
        # all-null columns may carry Arrow's `null` type, which the
        # count_distinct kernel rejects — they have 0 distinct values
        if vals is None or len(vals) == 0 or pa.types.is_null(vals.type):
            n = 0
        else:
            n = pc.count_distinct(vals).as_py()
        return pa.table({"d": pa.array([int(n)], pa.int64())})

    block_distinct.__name__ = "block_distinct_probe"
    s = (
        ds.select_columns([col])
        .map_batches(block_distinct, batch_format="pyarrow", batch_size=None)
        .sum("d")
    )
    return int(s or 0)


def _int_minmax(ds, col: str) -> tuple[int, int]:
    """Global (min, max) of an integer column — one int pair per block to
    the driver (the distinct_upper_bound probe shape). (0, 0) for an
    empty/all-null column."""

    def block_minmax(t: pa.Table) -> pa.Table:
        vals = t[col].drop_null() if t.num_rows else None
        if vals is None or len(vals) == 0 or pa.types.is_null(vals.type):
            return pa.table(
                {"lo": pa.array([], pa.int64()), "hi": pa.array([], pa.int64())}
            )
        mm = pc.min_max(vals)
        return pa.table(
            {
                "lo": pa.array([mm["min"].as_py()], pa.int64()),
                "hi": pa.array([mm["max"].as_py()], pa.int64()),
            }
        )

    block_minmax.__name__ = "block_minmax_probe"
    df = (
        ds.select_columns([col])
        .map_batches(block_minmax, batch_format="pyarrow", batch_size=None)
        .to_pandas()
    )
    if not len(df):
        return (0, 0)
    return (int(df["lo"].min()), int(df["hi"].max()))


def global_rank(ds, col: str, out_col: str = "n_le", max_distinct: int = 1_000_000):
    """Append each row's global cumulative rank `out_col` = COUNT of rows with
    `col` ≤ this row's value (NULLs excluded from both the count and the
    output) — the distribution-position signal behind percentile capping /
    'drop the bottom X%' curation rules, exact and shuffle-free for the row
    data itself.

    Scale shape: a two-tier distinct gate ENFORCES the `max_distinct` bound
    (the operator fundamentally broadcasts the sorted value list, so
    corpus-cardinality columns cannot use it — a clear ValueError routes
    them to quantile_threshold_filter's histogram ladder or
    ordered_prefix_sum instead of hitting the sort-aggregate
    group-cardinality pathology, BASELINE.md addendum). Tier 1 is the
    one-int-per-block Σ-distinct probe; because it SUMS per-block counts it
    overcounts values repeated across blocks (it scales with block count),
    so when it overshoots, tier 2 re-checks with a distributed HLL sketch
    (16 KiB registers per block, folded on the driver by ``sketch_dataset``
    — no shuffle, block-count-independent, ±~1% at p=14) before refusing: a
    bounded-cardinality column spread over many blocks stays legal at any
    corpus size. Within the bound: a BUCKETED value count (per-batch pandas
    partials → key-hash bucket → per-bucket sum, never
    groupby(col).aggregate), a tiny driver cumsum, then a broadcast
    (`broadcast.put`) sorted-values + cumulative-counts pair consumed by a map-only
    searchsorted pass. The corpus itself never shuffles.
    SQL twin: COUNT(*) OVER (ORDER BY col RANGE UNBOUNDED PRECEDING)."""
    import numpy as np

    from .assembly import bucketed_count_per_key

    bound = distinct_upper_bound(ds, col)
    if bound > max_distinct:
        from .sketches import sketch_dataset

        est = sketch_dataset(ds.select_columns([col]), {col: ("hll",)})[
            (col, "hll")
        ].estimate()
        bound = int(round(est))
    if bound > max_distinct:
        raise ValueError(
            f"global_rank({col!r}): distinct count ≈ {bound} exceeds "
            f"max_distinct={max_distinct}; this operator broadcasts the "
            "sorted value list so it is integer/categorical-only. For "
            "continuous/high-cardinality columns use "
            "quantile_threshold_filter (histogram ladder) or "
            "ordered_prefix_sum (sort-based order stats) instead."
        )
    vc = bucketed_count_per_key(ds.select_columns([col]), col, "n").to_pandas()
    vc = vc[vc[col].notna()].sort_values(col).reset_index(drop=True)
    vals = vc[col].to_numpy()
    cum = np.cumsum(vc["n"].to_numpy()).astype(np.int64)
    vals_cum = broadcast.put((vals, cum))

    def attach(t: pa.Table) -> pa.Table:
        sv, sc = vals_cum.get()
        t = t.filter(pc.is_valid(t[col]))
        v = t[col].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(sv, v, side="right") - 1
        return t.append_column(out_col, pa.array(sc[idx], pa.int64()))

    return ds.map_batches(attach, batch_format="pyarrow")


def ordered_prefix_sum(ds, order_col: str, val_col: str, out_col: str = "cum_prev"):
    """Distributed EXCLUSIVE prefix sum of `val_col` under the global total
    order of a UNIQUE `order_col` — the primitive behind sequential curation
    ops (token-budget packing, ordered quota cuts). SQL twin:
    SUM(val) OVER (ORDER BY key ROWS UNBOUNDED PRECEDING AND 1 PRECEDING).

    Scale shape: ONE range-partitioning sort (the unavoidable all-to-all for
    a global order), materialized once so the two passes share it; pass 1
    pulls one (block-min-key, block-sum) row PER BLOCK (driver pull = block
    count, never rows); pass 2 broadcasts the exclusive per-block offsets via
    `broadcast.put` and each block adds its internal exclusive cumsum — map-only.
    Unique order keys make block-min keys unique, so the offset lookup is
    exact. NULL vals count as 0."""
    import numpy as np

    sorted_ds = ds.sort(order_col).materialize()

    def block_stat(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"k": pa.array([], t.schema.field(order_col).type), "s": pa.array([], pa.int64())}
            )
        v = pc.fill_null(pc.cast(t[val_col], pa.int64()), 0)
        return pa.table(
            {"k": t[order_col].slice(0, 1), "s": pa.array([pc.sum(v).as_py() or 0], pa.int64())}
        )

    stats = sorted_ds.map_batches(block_stat, batch_format="pyarrow", batch_size=None).take_all()
    stats.sort(key=lambda r: r["k"])
    offsets: dict = {}
    run = 0
    for r in stats:
        offsets[r["k"]] = run
        run += int(r["s"])
    offsets_b = broadcast.put(offsets)

    def attach(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column(out_col, pa.array([], pa.int64()))
        base = offsets_b.get()[t[order_col][0].as_py()]
        v = (
            pc.fill_null(pc.cast(t[val_col], pa.int64()), 0)
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
        )
        cum_prev = base + np.cumsum(v) - v
        return t.append_column(out_col, pa.array(cum_prev, pa.int64()))

    return sorted_ds.map_batches(attach, batch_format="pyarrow", batch_size=None)


def packing_bins(ds, order_col: str, val_col: str, budget: int):
    """Assign each row a training-shard bin by cumulative budget in
    `order_col` order: bin = (exclusive prefix sum of val_col) // budget —
    the 'pack documents into ~budget-sized shards in a stable reading order'
    curation step. Built on ordered_prefix_sum; output adds int64 `bin`."""

    def binify(t: pa.Table) -> pa.Table:
        b = pc.divide(t["cum_prev"], budget)  # int64 // int -> floor for >=0
        return t.drop_columns(["cum_prev"]).append_column("bin", pc.cast(b, pa.int64()))

    return ordered_prefix_sum(ds, order_col, val_col).map_batches(
        binify, batch_format="pyarrow"
    )


def splitmix64(x) -> "np.ndarray":
    """Vectorized splitmix64 finalizer (Steele et al., public domain PRNG
    mix) — a BIJECTION on uint64: add and xorshift are invertible mod 2^64
    and both multiplier constants are odd. Used as the deterministic
    shuffle key; bijectivity means distinct ids can never collide."""
    import numpy as np

    z = (np.asarray(x, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)).astype(
        np.uint64
    )
    z ^= z >> np.uint64(30)
    z = (z * np.uint64(0xBF58476D1CE4E5B9)).astype(np.uint64)
    z ^= z >> np.uint64(27)
    z = (z * np.uint64(0x94D049BB133111EB)).astype(np.uint64)
    z ^= z >> np.uint64(31)
    return z


def deterministic_shuffle(
    ds, id_col: str, seed: int = 0, out_col: str = "shuffle_pos"
):
    """Seeded global permutation for reproducible training-epoch export:
    shuffle key = splitmix64(id ^ seed). The key attach is map-only; the
    global order costs ONE range-partitioning sort (the unavoidable
    all-to-all for any permutation); positions ride ordered_prefix_sum
    (driver pull = one row per block, map-only offset attach). Output keeps
    every input column and adds int64 `out_col` = the row's 0-based position
    in the shuffled order — stable across reruns, worker counts and block
    layouts, so a sharded export (shard = pos // shard_size) is resumable
    and a new epoch is just a new seed (no data movement until the sort).
    Requires unique, non-null integer ids (bijectivity then guarantees
    unique keys, which ordered_prefix_sum's block-min offset lookup needs).
    SQL twin: ROW_NUMBER() OVER (ORDER BY splitmix64(id ^ seed)) - 1 with
    the mix in 32-bit limb arithmetic — pipelines/queries.py
    shuffle_export_oracle. (Contrast ds.random_shuffle(): cluster-random,
    not reproducible across layouts, and no position column.)"""
    import numpy as np

    seed_u = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)

    def attach_key(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column("_shuffle_key", pa.array([], pa.uint64())).append_column(
                "_one", pa.array([], pa.int64())
            )
        ids = t[id_col].combine_chunks().to_numpy(zero_copy_only=False).astype(np.uint64)
        key = splitmix64(ids ^ seed_u)
        return t.append_column("_shuffle_key", pa.array(key, pa.uint64())).append_column(
            "_one", pa.array(np.ones(len(key), dtype=np.int64))
        )

    keyed = ds.map_batches(attach_key, batch_format="pyarrow")
    ranked = ordered_prefix_sum(keyed, "_shuffle_key", "_one", out_col=out_col)

    def finish(t: pa.Table) -> pa.Table:
        return t.drop_columns(["_shuffle_key", "_one"])

    return ranked.map_batches(finish, batch_format="pyarrow")


def _chain_mask(v, chain, bins: int):
    """Boolean mask of finite values surviving the histogram refinement chain
    [(lo, hi, j), ...]: at each level the value's bin under the SAME clipped
    floor assignment used when counting must equal the chosen bin j. Purely
    functional (no range filters), so float edge rounding can never make the
    count pass and the select pass disagree."""
    import numpy as np

    m = np.isfinite(v)
    for lo, hi, j in chain:
        idx = np.full(len(v), -1, dtype=np.int64)
        iv = v[m]
        idx_m = np.clip(
            np.floor((iv - lo) / (hi - lo) * bins).astype(np.int64), 0, bins - 1
        )
        idx[m] = idx_m
        m = m & (idx == j)
    return m


def _float_quantile_threshold(
    ds,
    col: str,
    q: float,
    bins: int = 1024,
    refine_cap: int = 65_536,
    max_levels: int = 8,
    telemetry: dict | None = None,
):
    """EXACT quantile_disc threshold of a continuous float column with a
    DRIVER PULL BOUNDED BY THE BIN COUNT, never the cardinality: a stats scan
    (count / ±inf counts / finite min-max), then per-level histogram scans
    (each block emits one `bins`-long int64 payload, folded on the driver by
    ``fold.fold_payloads``), narrowing to the bin containing rank ceil(q·n)
    until it holds ≤ refine_cap values, then one exact value count
    (``fold.sum_by_key``) restricted to that bin. Bin assignment is a
    clipped monotone floor map, so bin order is value order and the rank walk
    stays exact regardless of float edge rounding. NULL and NaN are ignored
    (quantile_disc NULL rule; the engine's documented NaN stance). Returns the
    threshold as a float (may be ±inf), or None for an empty/all-null column.
    """
    import pickle

    import numpy as np

    from .fold import fold_payloads, sum_by_key

    proj = ds.select_columns([col])

    def _payload_table(obj) -> pa.Table:
        return pa.table({"payload": pa.array([pickle.dumps(obj)], pa.binary())})

    def _vals(t: pa.Table) -> "np.ndarray":
        v = t[col].drop_null().to_numpy(zero_copy_only=False).astype(np.float64)
        return v[~np.isnan(v)]

    def stats_partial(t: pa.Table) -> pa.Table:
        v = _vals(t)
        fin = v[np.isfinite(v)]
        lo_hi = (float(fin.min()), float(fin.max())) if fin.size else (np.inf, -np.inf)
        return _payload_table(
            (int(fin.size), int(np.isneginf(v).sum()), int(np.isposinf(v).sum()), *lo_hi)
        )

    def stats_merge(a, b):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2], min(a[3], b[3]), max(a[4], b[4]))

    n_fin, neg, pos, lo, hi = fold_payloads(proj, stats_partial, merge=stats_merge).get(
        (), (0, 0, 0, None, None)
    )
    total = n_fin + neg + pos
    if total == 0:
        return None
    rank = max(1, int(np.ceil(q * total)))
    if rank <= neg:
        return float("-inf")
    if rank > neg + n_fin:
        return float("inf")
    rank_fin = rank - neg  # 1-based rank among finite values
    if lo == hi:
        return float(lo)

    chain: list[tuple[float, float, int]] = []
    count_below = 0  # finite values strictly in lower bins of the chain
    bin_count = n_fin
    levels = 0
    while bin_count > refine_cap and levels < max_levels and lo < hi:

        def hist_partial(t: pa.Table, _lo=lo, _hi=hi, _chain=tuple(chain)) -> pa.Table:
            v = _vals(t)
            m = _chain_mask(v, _chain, bins)
            iv = v[m]
            idx = np.clip(
                np.floor((iv - _lo) / (_hi - _lo) * bins).astype(np.int64), 0, bins - 1
            )
            return _payload_table(np.bincount(idx, minlength=bins).astype(np.int64))

        counts = fold_payloads(proj, hist_partial, merge=np.add)[()]
        cum = np.cumsum(counts)
        j = int(np.searchsorted(cum, rank_fin - count_below))
        width = hi - lo
        new_lo = lo + j * width / bins
        new_hi = lo + (j + 1) * width / bins
        count_below += int(cum[j - 1]) if j > 0 else 0
        new_count = int(counts[j])
        chain.append((lo, hi, j))
        levels += 1
        if not (new_lo < new_hi) or new_count == bin_count:
            # width underflow / no progress: (near-)identical values — the
            # exact pass below pulls few DISTINCT values even if the count is
            # large
            bin_count = new_count
            break
        lo, hi, bin_count = new_lo, new_hi, new_count

    # exact pass: value counts of the surviving bin only
    def bin_values(t: pa.Table, _chain=tuple(chain)) -> pa.Table:
        v = _vals(t)
        m = _chain_mask(v, _chain, bins)
        uniq, cnt = np.unique(v[m], return_counts=True)
        return pa.table(
            {"value": pa.array(uniq, pa.float64()), "n": pa.array(cnt, pa.int64())}
        )

    schema = pa.schema([("value", pa.float64()), ("n", pa.int64())])
    vc = sum_by_key(proj, schema, ["value"], bin_values).to_pandas()
    if telemetry is not None:
        telemetry["levels"] = levels
        telemetry["exact_rows"] = len(vc)
        telemetry["bin_count"] = bin_count
    cum = np.cumsum(vc["n"].to_numpy())
    return float(vc["value"].iloc[int(np.searchsorted(cum, rank_fin - count_below))])


def quantile_threshold_filter(
    ds,
    col: str,
    q: float,
    bins: int = 1024,
    refine_cap: int = 65_536,
    telemetry: dict | None = None,
):
    """Keep rows with `col` >= the EXACT q-quantile of the corpus (the
    "top-(1-q) by quality score" curation selector).

    Scale shape by column type:
    - float columns (the continuous "quality score" case, where cardinality ≈
      corpus): bin-then-refine histogram ladder — driver pulls are bounded by
      the BIN COUNT per level plus one ≤ refine_cap exact pass, never the
      cardinality (see _float_quantile_threshold);
    - integer / categorical columns: a one-int-per-block distinct probe
      ENFORCES the bounded-cardinality contract (previously only documented)
      — within the bound, a BUCKETED value count (never
      groupby(col).aggregate, the sort-aggregate group-cardinality hazard)
      and a tiny driver cumsum locate the quantile_disc threshold (same rank
      rule as DuckDB: element at rank ceil(q*n), 1-based); ABOVE the bound,
      integer columns route through the same histogram ladder as floats
      (exact for |values| < 2^53 — the float64 mantissa; µs timestamps are
      ~2^51), and non-numeric high-cardinality columns raise a clear error
      instead of silently degrading.
    The corpus itself then streams through a single map-only comparison."""
    import numpy as np

    sch = ds.schema()
    ftype = dict(zip(sch.names, sch.types)).get(col)
    # ftype may be a plain Python type (e.g. an all-null pandas column) —
    # only pyarrow floating types take the histogram path
    is_arrow = isinstance(ftype, pa.DataType)
    take_ladder = is_arrow and pa.types.is_floating(ftype)
    if not take_ladder:
        bound = distinct_upper_bound(ds, col)
        if bound > max(refine_cap, 1):
            if is_arrow and pa.types.is_integer(ftype):
                # corpus-cardinality int (e.g. µs timestamps): histogram
                # ladder, not a corpus-sized value-count pull. The ladder
                # computes in float64, where distinct ints at |v| ≥ 2^53
                # collapse to the same double — a hash-valued int64 column
                # (hash64().view(int64), full 64-bit range) would get a
                # silently wrong threshold. Refuse loudly, like the
                # non-numeric case (one extra min/max probe, one int pair
                # per block to the driver).
                lo, hi = _int_minmax(ds, col)
                if max(abs(lo), abs(hi)) >= 2**53:
                    raise ValueError(
                        f"quantile_threshold_filter({col!r}): integer "
                        f"values span [{lo}, {hi}], beyond float64's exact "
                        f"range (|v| < 2^53), and Σ per-block distinct "
                        f"≈ {bound} exceeds refine_cap={refine_cap} so the "
                        "exact value-count path is unavailable — the "
                        "histogram ladder would be silently inexact. "
                        "Bucket/truncate the column, or use "
                        "ordered_prefix_sum (sort-based order stats)."
                    )
                take_ladder = True
            else:
                raise ValueError(
                    f"quantile_threshold_filter({col!r}): Σ per-block "
                    f"distinct ≈ {bound} exceeds refine_cap={refine_cap} "
                    "and the column is not numeric — a value-count quantile "
                    "would pull the corpus's cardinality to the driver. "
                    "Bucket/truncate the column first, or raise refine_cap "
                    "deliberately."
                )
        if telemetry is not None:
            telemetry["distinct_upper_bound"] = bound
    if take_ladder:
        thr = _float_quantile_threshold(
            ds, col, q, bins=bins, refine_cap=refine_cap, telemetry=telemetry
        )
        if thr is None:
            return ds.map_batches(lambda t: t.slice(0, 0), batch_format="pyarrow")
        if is_arrow and pa.types.is_integer(ftype):
            # ladder computes in float64; the threshold is one of the
            # column's own values, so it round-trips exactly below 2^53
            thr = int(thr)
    else:
        from .assembly import bucketed_count_per_key

        vc = bucketed_count_per_key(ds.select_columns([col]), col, "n").to_pandas()
        if len(vc):
            # quantile_disc ignores NULLs: drop the null/NaN group from the rank
            vc = vc[vc[col].notna()].sort_values(col).reset_index(drop=True)
        if not len(vc):
            # empty / all-null corpus: SQL's threshold is NULL -> zero rows kept
            return ds.map_batches(lambda t: t.slice(0, 0), batch_format="pyarrow")
        counts = vc["n"].to_numpy()
        cum = np.cumsum(counts)
        total = int(cum[-1])
        rank = max(1, int(np.ceil(q * total)))
        thr = vc[col].iloc[int(np.searchsorted(cum, rank))]
    # expr pushdown only for finite numerics on identifier-safe names: an inf
    # threshold (infs survive the notna filter, unlike NULLs) or a dotted /
    # spaced column name would render an unparseable expression
    safe_name = col.isidentifier()
    if isinstance(thr, (int, np.integer)) and safe_name:
        return ds.filter(expr=f"{col} >= {int(thr)}")  # pushdown-friendly
    if isinstance(thr, (float, np.floating)) and safe_name and np.isfinite(thr):
        return ds.filter(expr=f"{col} >= {float(thr)!r}")
    # non-numeric / non-finite thresholds: typed Arrow comparison (no
    # expr-quoting hazards; greater_equal handles ±inf exactly)
    thr_scalar = pa.scalar(thr)

    def flt(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t[col], thr_scalar))

    return ds.map_batches(flt, batch_format="pyarrow")


def grouped_quantiles(ds, key: str, col: str, qs=(0.5, 0.9, 0.99)):
    """EXACT per-group quantiles (quantile_disc rank rule) — per-segment
    distribution stats (e.g. price quantiles per priority class, turn-count
    quantiles per role).

    Scale shape: per-block pandas (key, col) pair counts → exchange keyed by
    KEY → per-bucket partial merge + rank walk, one shuffle whose volume is
    bounded by blocks × per-block joint cardinality, never the corpus — and
    never `groupby([key, col]).aggregate()`, whose sort degrades with GROUP
    cardinality (a continuous col makes the pair count ≈ the corpus; the
    CLAUDE.md group-cardinality rule). Bucketing by KEY keeps every key's
    pairs in one task, which the exact rank walk requires anyway. Returns a
    Dataset (key, q_permille, value)."""
    import numpy as np

    from .exchange import exchange

    def grouped_quantile_partials(df: pd.DataFrame) -> pd.DataFrame:
        out = (
            df.groupby([key, col], sort=False, dropna=False)
            .size()
            .rename("n")
            .reset_index()
        )
        out["n"] = out["n"].astype("int64")
        return out

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        group_val = g[key].iloc[0]
        # quantile_disc ignores NULLs (same rule as quantile_threshold_filter)
        g = g[g[col].notna()].sort_values(col, kind="stable")
        if not len(g):
            # all-null group: SQL's quantile is NULL
            return pd.DataFrame(
                [
                    {key: group_val, "q_permille": int(round(q * 1000)), "value": None}
                    for q in qs
                ]
            )
        cum = np.cumsum(g["n"].to_numpy())
        total = int(cum[-1])
        vals = g[col].to_numpy()
        rows = []
        for q in qs:
            rank = max(1, int(np.ceil(q * total)))
            rows.append(
                {
                    key: group_val,
                    "q_permille": int(round(q * 1000)),
                    "value": vals[int(np.searchsorted(cum, rank))],
                }
            )
        return pd.DataFrame(rows)

    def per_key_rank_walk(g: pd.DataFrame) -> pd.DataFrame:
        # merge cross-block partials (sum per pair), then walk each key
        m = (
            g.groupby([key, col], sort=False, dropna=False)["n"]
            .sum()
            .reset_index()
        )
        outs = [per_key(sub) for _, sub in m.groupby(key, sort=False, dropna=False)]
        return pd.concat(outs, ignore_index=True)

    return exchange(
        ds.select_columns([key, col]), key, per_key_rank_walk, grouped_quantile_partials
    )
