"""Windowed aggregates over stream-shaped tables.

The reference is strictly request/response — no windows, watermarks or
cross-event state (SURVEY.md §2.9). This operator covers the stream-shaped
workloads a batch engine still meets (the `events` table): event-time
tumbling / session windows, expressed Dataset-first.

- Tumbling: window id = floor(epoch / size) computed in a vectorized
  map_batches, then one keyed exchange (stages/exchange.py) of (key,
  window, partial) rows.
- Session: per-key gap-based segmentation needs ordered per-key state →
  one keyed exchange (stages/exchange.py) + a vectorized multi-key pass per
  bucket.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import exchange
from .fold import dataset, sum_by_key

#: day string of a NULL timestamp — a real string key keeps the group
#: joinable (SQL NULL keys don't equi-join; pandas/Ray group them
#: inconsistently); the SQL twins spell it COALESCE(strftime(..), '(null)')
NULL_DATE = "(null)"


def utc_day(ts) -> pa.Array:
    """'YYYY-MM-DD' of each timestamp (any unit, naive or UTC), NULL_DATE for
    NULL. Cast through date32 rather than ``pc.strftime``: ~30x cheaper, and
    the same strings as DuckDB ``strftime(ts, '%Y-%m-%d')`` before 1970 (the
    date cast floors) and for years 1 and 9999."""
    return pc.fill_null(pc.cast(pc.cast(ts, pa.date32()), pa.string()), NULL_DATE)


def _ts_us_float(series: pd.Series) -> pd.Series:
    """Epoch-µs as float64 with NaN for NaT — unit-safe for ns and us
    inputs (from_pandas corpora arrive as timestamp[ns], parquet as
    timestamp[us]; µs epochs ≈ 1.7e15 stay exact in float64's 2^53).
    The single shared normalization for every windowed class; callers
    choose their own null policy on the NaN."""
    tsd = pd.to_datetime(series)
    v = tsd.astype("int64").astype("float64")
    if str(tsd.dtype).startswith("datetime64[ns"):
        v = v / 1000.0
    v = v.where(tsd.notna())
    return v


def tumbling_window_agg(
    ds,
    key: str,
    ts_col: str,
    window_s: int,
    value_col: str | None = None,
):
    """Per (key, tumbling window) count and optional sum. Returns a Dataset
    with (key, window_start (epoch s), n, sum_value?).

    Scale shape: per-block pandas partials over (key, window) → exchange
    keyed by the pair → per-bucket merge. Distinct (key, window) groups scale with
    users × time span, so a `groupby([key, window]).aggregate()` pays the
    sort-aggregate group-cardinality cost (CLAUDE.md rule) — the same
    packed-pair cure sliding_window_distinct uses."""
    out_cols = [key, "window_start", "n"] + (["sum_value"] if value_col else [])

    def tumbling_partials(t: pa.Table) -> pd.DataFrame:
        # unit-safe: normalize to µs before the int64 view (from_pandas
        # corpora arrive as timestamp[ns]; parquet corpora as timestamp[us])
        epoch = pc.cast(pc.cast(t[ts_col], pa.timestamp("us")), pa.int64())
        win = pc.multiply(
            pc.cast(pc.floor(pc.divide(epoch, float(window_s * 1_000_000))), pa.int64()),
            window_s,
        )
        df = pd.DataFrame({key: t[key].to_pandas(), "window_start": win.to_pandas()})
        if value_col:
            df[value_col] = t[value_col].to_pandas()
        g = df.groupby([key, "window_start"], sort=False)
        out = g.size().rename("n").reset_index()
        if value_col:
            out["sum_value"] = g[value_col].sum().to_numpy()
        return out

    def tumbling_merge(g: pd.DataFrame) -> pd.DataFrame:
        gg = g.groupby([key, "window_start"], sort=False)
        out = gg["n"].sum().reset_index()
        if value_col:
            out["sum_value"] = gg["sum_value"].sum().to_numpy()
        out["n"] = out["n"].astype("int64")
        return out[out_cols]

    partials = ds.map_batches(tumbling_partials, batch_format="pyarrow")
    return exchange(partials, [key, "window_start"], tumbling_merge)


def sliding_window_agg(
    ds,
    key: str,
    ts_col: str,
    window_s: int,
    slide_s: int,
):
    """Per (key, sliding/hopping window) count: each event belongs to every
    window [w, w+window) with w a multiple of `slide_s` covering its
    timestamp — vectorized per-batch replication (np.repeat over the
    per-event window count, window_s/slide_s copies) COMBINED in-batch to
    (key, window, n) partials, then an exchange keyed by the pair (distinct
    (key, window) groups scale with the corpus — a multi-key
    groupby().aggregate() is the CLAUDE.md sort-aggregate hazard). The
    shuffle carries one row per (block, key, window), never the replicated
    events."""
    w_us = window_s * 1_000_000
    s_us = slide_s * 1_000_000

    def sliding_window_partials(t: pa.Table) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                key: pd.Series(dtype=object),
                "window_start": pd.Series(dtype="int64"),
                "n": pd.Series(dtype="int64"),
            }
        )
        # a NULL-ts event lies in no window (the twin's unnest(range(NULL…))
        # yields no rows)
        t = t.filter(pc.is_valid(t[ts_col]))
        if t.num_rows == 0:
            return empty
        epoch = pc.cast(
            pc.cast(t[ts_col], pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        keys = t[key].to_numpy(zero_copy_only=False)
        # windows with w_start in (epoch - window, epoch], aligned to slide
        first = ((epoch - w_us) // s_us + 1) * s_us
        first = np.maximum(first, 0)
        last = (epoch // s_us) * s_us
        counts = np.maximum(0, (last - first) // s_us + 1).astype(np.int64)
        total = int(counts.sum())
        if total == 0:
            return empty
        rep_keys = np.repeat(keys, counts)
        starts = np.repeat(first, counts)
        # offset within each event's window run: 0..counts-1
        run_starts = np.cumsum(counts) - counts
        offs = np.arange(total, dtype=np.int64) - np.repeat(run_starts, counts)
        wstart = (starts + offs * s_us) // 1_000_000  # epoch seconds
        g = pd.DataFrame({key: rep_keys, "window_start": wstart}).groupby(
            [key, "window_start"], sort=False
        )
        out = g.size().rename("n").reset_index()
        out["n"] = out["n"].astype("int64")
        return out

    def sliding_window_merge(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.groupby([key, "window_start"], sort=False)["n"].sum().reset_index()
        )
        out["n"] = out["n"].astype("int64")
        return out[[key, "window_start", "n"]]

    partials = ds.map_batches(sliding_window_partials, batch_format="pyarrow")
    return exchange(partials, [key, "window_start"], sliding_window_merge)


class _SessionizeBucket:
    """Vectorized multi-key sessionizer (one call = one hash bucket of keys)."""

    def __init__(self, key: str, ts_col: str, gap_s: int):
        self.key = key
        self.ts_col = ts_col
        self.gap_s = gap_s

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([self.key, self.ts_col], kind="stable").reset_index(drop=True)
        # NaN-aware µs: a NaT row joins the preceding session (NaN > gap is
        # False — same grouping as the SQL twin's falsy `tsu - LAG > g`) and
        # is COUNTED in n, but min/max skip it instead of poisoning
        # session_start with NaT's int64-min cast
        ts = _ts_us_float(df[self.ts_col])
        new_key = df[self.key] != df[self.key].shift(1)
        gap = (ts - ts.shift(1)) > self.gap_s * 1_000_000
        session = (new_key | gap).cumsum()
        out = (
            pd.DataFrame({self.key: df[self.key], "_s": session, "_ts": ts})
            .groupby([self.key, "_s"], sort=False)
            .agg(session_start=("_ts", "min"), session_end=("_ts", "max"), n=("_ts", "size"))
            .reset_index()
            .drop(columns="_s")
        )
        # plain int64 on the (normal) null-free path — nullable Int64 only
        # when an all-NaT session forces a NULL bound (SQL MIN-over-NULLs)
        for c in ("session_start", "session_end"):
            v = out[c].round()
            out[c] = (
                v.astype("int64") if v.notna().all() else v.astype("Int64")
            )
        return out


def session_window_agg(ds, key: str, ts_col: str, gap_s: int):
    """Gap-based session windows per key: (key, session_start µs,
    session_end µs, n). One keyed exchange, so one task sessionizes many
    keys vectorized."""
    projected = ds.select_columns([key, ts_col])
    return exchange(projected, key, _SessionizeBucket(key, ts_col, gap_s))


class _FunnelBucket:
    """One call = one hash bucket of users: per-user strict-order funnel.
    Stage 0 time = MIN(ts) over that user's stage-0 events (a user whose
    stage-0 events are all NULL-ts still enters the funnel with an unknown
    time, matching SQL MIN-over-NULLs — they can never advance, since
    `ts > NULL` is never true on either engine). Stage i time = MIN(ts) of
    stage-i events STRICTLY after the stage-(i-1) time. Emits per-bucket
    PARTIAL counts (stage_idx, n_users)."""

    def __init__(self, stages: list[str], user_col: str, type_col: str, ts_col: str):
        self.stages = list(stages)
        self.user_col, self.type_col, self.ts_col = user_col, type_col, ts_col

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        u, ty, ts = self.user_col, self.type_col, self.ts_col
        reached = (
            df.loc[df[ty] == self.stages[0]]
            .groupby(u, sort=False)[ts]
            .min()
            .rename("_t")
            .reset_index()
        )
        counts = [len(reached)]
        for stage in self.stages[1:]:
            ev = df.loc[df[ty] == stage, [u, ts]].merge(reached, on=u, how="inner")
            ev = ev.loc[ev[ts] > ev["_t"]]
            reached = ev.groupby(u, sort=False)[ts].min().rename("_t").reset_index()
            counts.append(len(reached))
        return pd.DataFrame(
            {
                "stage_idx": np.arange(len(self.stages), dtype=np.int64),
                "n_users": np.asarray(counts, dtype=np.int64),
            }
        )


def funnel_counts(
    ds,
    stages: list[str],
    user_col: str = "user_id",
    type_col: str = "event_type",
    ts_col: str = "ts",
):
    """Ordered-sequence funnel over an event stream: how many users performed
    stage₀, then stage₁ strictly after it, then stage₂ strictly after that…
    (each stage time = earliest qualifying event). The classic product-
    analytics query, and an ordered-pattern shape Ray Data has no native
    operator for.

    Scale shape: project to 3 columns, pre-filter to the funnel's event
    types at the read side of the shuffle, ONE exchange keyed by user
    co-locating each user's events, vectorized per-bucket pandas funnel,
    then the driver folds the stages×buckets partial rows
    (``fold.sum_by_key``) — the final table is len(stages) rows regardless
    of corpus size."""
    wanted = pa.array(sorted(set(stages)), type=pa.string())

    def prefilter(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t[type_col], value_set=wanted))

    prefilter.__name__ = "funnel_type_prefilter"
    projected = ds.select_columns([user_col, type_col, ts_col]).map_batches(
        prefilter, batch_format="pyarrow"
    )
    partials = exchange(projected, user_col, _FunnelBucket(stages, user_col, type_col, ts_col))
    schema = pa.schema([("stage_idx", pa.int64()), ("n_users", pa.int64())])
    t = sum_by_key(partials, schema, ["stage_idx"])
    stage = pa.array([stages[i] for i in t["stage_idx"].to_pylist()], pa.string())
    return dataset(t.add_column(1, "stage", stage))


def sliding_window_distinct(
    ds,
    key: str,
    val: str,
    ts_col: str,
    window_s: int,
    slide_s: int,
):
    """Per (key, sliding window): EXACT COUNT(DISTINCT val) — e.g. distinct
    active users per event_type per hopping window, the dashboard query
    COUNT can't answer. Same bounded ×(window/slide) replication as
    sliding_window_agg, then the skew-safe distinct-count reduction
    (assembly.distinct_count_per_key): duplicate (window,key,val) triples
    collapse in per-batch combiners and a hot window never lands in one
    task. The (key, window_start) pair rides the reduce as ONE packed key —
    multi-key groupby at scale is the documented Ray hazard."""
    from .assembly import distinct_count_per_key

    w_us = window_s * 1_000_000
    s_us = slide_s * 1_000_000

    def explode(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[ts_col]))  # NULL ts: in no window
        if t.num_rows == 0:
            # np.repeat with a length-1 run_starts vs empty counts raises —
            # emit the typed empty table instead
            return pa.table(
                {
                    "_k": pa.array([], pa.string()),
                    val: pa.array([], t.schema.field(val).type),
                }
            )
        epoch = pc.cast(
            pc.cast(t[ts_col], pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        keys = t[key].to_numpy(zero_copy_only=False)
        vals = t[val].to_numpy(zero_copy_only=False)
        first = ((epoch - w_us) // s_us + 1) * s_us
        first = np.maximum(first, 0)
        last = (epoch // s_us) * s_us
        counts = np.maximum(0, (last - first) // s_us + 1).astype(np.int64)
        starts = np.repeat(first, counts)
        run_starts = np.cumsum(counts) - counts
        offs = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
            run_starts, counts
        )
        wstart = (starts + offs * s_us) // 1_000_000
        kcol = pd.Series(np.repeat(keys, counts), dtype=object)
        packed = kcol.str.cat(pd.Series(wstart).astype(str), sep="\x1f")
        return pa.table(
            {
                "_k": pa.array(packed, type=pa.string()),
                val: pa.array(np.repeat(vals, counts)),
            }
        )

    explode.__name__ = "window_replicate_pack"
    counts = distinct_count_per_key(
        ds.select_columns([key, val, ts_col]).map_batches(
            explode, batch_format="pyarrow"
        ),
        "_k",
        val,
        "n_distinct",
    )

    def unpack(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    key: pd.Series(dtype=object),
                    "window_start": pd.Series(dtype="int64"),
                    "n_distinct": pd.Series(dtype="int64"),
                }
            )
        parts = df["_k"].str.rsplit("\x1f", n=1, expand=True)
        return pd.DataFrame(
            {
                key: parts[0],
                "window_start": parts[1].astype("int64"),
                "n_distinct": df["n_distinct"].astype("int64"),
            }
        )

    unpack.__name__ = "unpack_window_key"
    return counts.map_batches(unpack, batch_format="pandas")


class _SessionizeRowsBucket:
    """One call = one hash bucket of keys: attach each event's session start
    (gap-based, like _SessionizeBucket but row-level enrichment instead of
    per-session aggregate)."""

    def __init__(self, key: str, ts_col: str, gap_s: int):
        self.key = key
        self.ts_col = ts_col
        self.gap_s = gap_s

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        us = _ts_us_float(df[self.ts_col])
        valid = us.notna()  # NULL-ts events have no place on a session axis
        sub = pd.DataFrame(
            {self.key: df[self.key][valid], "ts_us": us[valid].astype("int64")}
        ).sort_values([self.key, "ts_us"], kind="stable")
        new_key = sub[self.key].ne(sub[self.key].shift(1))
        gap = (sub["ts_us"] - sub["ts_us"].shift(1)) > self.gap_s * 1_000_000
        sess = (new_key | gap).cumsum()
        sub["session_start"] = sub.groupby(sess)["ts_us"].transform("first")
        return sub.reset_index(drop=True)


def sessionize_events(ds, key: str, ts_col: str, gap_s: int):
    """Row-level sessionization: every event keeps its row, enriched with the
    start of its gap-based session → (key, ts_us, session_start). The
    enrichment dual of session_window_agg (which aggregates), feeding
    per-session feature joins downstream. One keyed exchange, fully
    vectorized per bucket; output volume = input volume."""
    projected = ds.select_columns([key, ts_col])
    return exchange(projected, key, _SessionizeRowsBucket(key, ts_col, gap_s))


def user_growth(ds, user_col: str = "user_id", ts_col: str = "ts"):
    """Cumulative-audience report: per day, how many users appear for the
    FIRST time and the running total → (date_utc, n_new, n_cum). Scale
    shape: a bucketed per-user Min(first timestamp) — one additive shuffle
    of (user, µs) rows — then per-block day counts folded on the driver
    (``fold.sum_by_key``); the cumulative sum runs on that days-sized table
    (same bound class as the report plane's per-day views)."""
    from .assembly import bucketed_reduce_per_key

    def project(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                user_col: t[user_col],
                "_us": pc.cast(pc.cast(t[ts_col], pa.timestamp("us")), pa.int64()),
            }
        )

    project.__name__ = "project_user_ts"
    # users scale with the corpus: bucketed min, not groupby(user).aggregate
    # (BASELINE.md group-cardinality addendum)
    first = bucketed_reduce_per_key(
        ds.select_columns([user_col, ts_col]).map_batches(
            project, batch_format="pyarrow"
        ),
        user_col,
        [("_first_us", "_us", "min")],
    )

    def day_partials(t: pa.Table) -> pa.Table:
        # a user whose timestamps are all NULL has no first day: counted
        # under the NULL_DATE sentinel, as the SQL twin COALESCEs
        us = pc.cast(t["_first_us"], pa.int64())
        day = pa.table({"date_utc": utc_day(pc.cast(us, pa.timestamp("us")))})
        return day.group_by("date_utc", use_threads=False).aggregate([([], "count_all")])

    day_partials.__name__ = "first_day_partials"
    schema = pa.schema([("date_utc", pa.string()), ("count_all", pa.int64())])
    per_day = sum_by_key(first, schema, ["date_utc"], day_partials)
    n_new = per_day["count_all"]
    return dataset(
        pa.table({"date_utc": per_day["date_utc"], "n_new": n_new, "n_cum": pc.cumulative_sum(n_new)})
    )


class _RetentionBucket:
    """One call = one hash bucket of users: per-user first-activity day and
    distinct activity days → per-bucket PARTIAL counts per (cohort_date,
    day_offset)."""

    def __init__(self, user_col: str, ts_col: str):
        self.user_col = user_col
        self.ts_col = ts_col

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        us = _ts_us_float(df[self.ts_col])
        # NULL ts / NULL user have no place on a retention axis (the SQL
        # twin filters both; a NaN group key would also float-poison d0)
        valid = us.notna() & df[self.user_col].notna()
        sub = pd.DataFrame(
            {
                "u": df[self.user_col][valid],
                "day": (us[valid] // 86_400_000_000).astype("int64"),
            }
        ).drop_duplicates()
        d0 = sub.groupby("u", sort=False)["day"].transform("min")
        counts = pd.DataFrame({"d0": d0, "day_offset": sub["day"] - d0}).value_counts()
        d0, off = counts.index.get_level_values(0), counts.index.get_level_values(1)
        return pd.DataFrame(
            {
                "cohort_date": pd.to_datetime(d0 * 86400, unit="s").strftime("%Y-%m-%d"),
                "day_offset": np.asarray(off, dtype=np.int64),
                "n_users": counts.to_numpy().astype("int64"),
            }
        )


def retention_cohorts(ds, user_col: str = "user_id", ts_col: str = "ts"):
    """Cohort retention triangle: for each signup cohort (a user's first
    active UTC day), how many of its users were active again `day_offset`
    days later → (cohort_date, day_offset, n_users); offset 0 is the cohort
    size. The product-analytics companion to `funnel_counts`.

    Scale shape: project to 2 columns, ONE exchange keyed by user co-locating
    each user's events (a user's history is the unit of work — inherent to
    "first day" semantics), per-bucket vectorized dedup/first-day/offset
    partials, then the driver folds the days²-bounded partial counts
    (``fold.sum_by_key``). The corpus never moves twice and the driver never
    sees more than the cohort triangle times the bucket count."""
    projected = ds.select_columns([user_col, ts_col])
    partials = exchange(projected, user_col, _RetentionBucket(user_col, ts_col))
    schema = pa.schema(
        [("cohort_date", pa.string()), ("day_offset", pa.int64()), ("n_users", pa.int64())]
    )
    return dataset(sum_by_key(partials, schema, ["cohort_date", "day_offset"]))
