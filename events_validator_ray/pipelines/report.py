"""Reporting plane over the violations/log Dataset — the Ray Data analog of
the reference's Streamlit "Validation Report"
(streamlit_ev/app/validation_report.py:59-197).

The reference reads its BigQuery log table for a date range, filters, and
computes two aggregations (SURVEY.md §2.5 A2/A3):
- failures by day × dimension: group_by + len + sort (validation_report.py:110-116)
- daily error rate: 100 · n_unique(event_id | error) / n_unique(event_id)
  (validation_report.py:119-131)

Here the log is a Dataset (error + valid rows); `date_utc` is derived from the
`timestamp` column (the reference materializes it at log time,
loggingHelpers.js:17). Distinct counts are exact two-level groupbys (dedup to
(day, event_id) pairs, then count) — at 10^12 scale swap the inner dedup for
the HLL sketch in stages/sketches.py.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..stages import fold
from ..stages.windows import utc_day


def _with_date(ds):
    def add_date(t: pa.Table) -> pa.Table:
        return t.append_column("date_utc", utc_day(t["timestamp"]))

    return ds.map_batches(add_date, batch_format="pyarrow")


#: the exact and approximate daily_error_rate's day counts
_RATE_COUNTS = pa.schema(
    [("date_utc", pa.string()), ("n_events", pa.int64()), ("n_error_events", pa.int64())]
)


def _rate_frame(t: pa.Table):
    """``t`` (``_RATE_COUNTS``) as a pandas frame with ``error_rate`` added;
    typed even when empty."""
    out = t.to_pandas()
    out["error_rate"] = (100.0 * out["n_error_events"] / out["n_events"]).round(6)
    return out


def _error_counts(ds, keys: list[str], n: str, order, k: int | None = None):
    """Error rows per ``keys``, sorted by ``order`` and cut to the first
    ``k``, through the bounded fold (``stages/fold.py``): the cardinality is
    bounded (days × fields, fields × error types), so each block counts its
    own errors with Arrow ``group_by`` and the driver folds the partials as
    they stream in. Returns a typed Dataset of (*keys, n)."""

    def count_block(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["status"], "error"))
        c = t.group_by(keys, use_threads=False).aggregate([([], "count_all")])
        return c.select([*keys, "count_all"]).rename_columns([*keys, n])

    schema = pa.schema([*((c, pa.string()) for c in keys), (n, pa.int64())])
    out = fold.sum_by_key(ds, schema, keys, count_block).sort_by(order)
    return fold.dataset(out if k is None else out.slice(0, k))


def failures_by_day(ds, dim: str = "field"):
    """Failures by day × dimension (default: the violated field; the reference
    uses event_name as its dimension, validation_report.py:110-116), sorted by
    (day, dimension). Returns a Dataset with (date_utc, {dim}, n_failures)."""
    order = [("date_utc", "ascending"), (dim, "ascending")]
    return _error_counts(_with_date(ds), ["date_utc", dim], "n_failures", order)


def daily_error_rate(ds, approx: bool = False, hll_p: int = 14):
    """Per-day total distinct events, distinct error events, and error rate %
    (validation_report.py:119-131). Returns (date_utc, n_events,
    n_error_events, error_rate) sorted by day.

    ``approx=True`` is the 10^12-turn path: per-batch mergeable HLL partials
    per (day, total|error) replace the exchange over event ids; what still
    shuffles is the partials, at most blocks x days x 2 rows, through one
    ``groupby(["date_utc", "which"]).map_groups`` (relative error
    ~1.04/sqrt(2^hll_p), ~0.8% at p=14, asserted against the exact mode in
    tests/test_sketches.py)."""
    if approx:
        return _daily_error_rate_hll(ds, hll_p)
    from ..stages.exchange import exchange

    with_date = _with_date(ds).select_columns(["date_utc", "event_id", "status"])

    def batch_dedup(t: pa.Table) -> pa.Table:
        # pre-aggregate within the block before the shuffle: one row per
        # (date, event_id) with its max is_error flag cuts the shuffle input
        # by ~the block's duplication factor — groupby([date, event]) at
        # distinct-event cardinality is the documented sort-aggregate hazard
        # (BASELINE.md)
        flags = pc.cast(pc.equal(t["status"], "error"), pa.int64())
        t2 = pa.table(
            {
                "date_utc": t["date_utc"],
                "event_id": t["event_id"],
                "is_error": flags,
            }
        )
        return t2.group_by(["date_utc", "event_id"]).aggregate([("is_error", "max")])

    def pair_dedup_day_partials(t: pa.Table) -> pa.Table:
        # exact global dedup (all copies of a pair share the bucket), then
        # per-bucket per-day partial counts — the fold carries buckets ×
        # days rows, never the event table. A NULL event_id is no event
        # (COUNT(DISTINCT) skips it), but its day stays, as in the twin's
        # GROUP BY date_utc.
        d = t.group_by(["date_utc", "event_id"], use_threads=False).aggregate(
            [("is_error_max", "max")]
        )
        err = d["is_error_max_max"]
        if d["event_id"].null_count:
            err = pc.if_else(pc.is_valid(d["event_id"]), err, 0)
        out = d.set_column(2, "err", err).group_by("date_utc", use_threads=False).aggregate(
            [("event_id", "count"), ("err", "sum")]
        )
        return out.select(["date_utc", "event_id_count", "err_sum"]).rename_columns(
            _RATE_COUNTS.names
        )

    # keyed by event_id alone: every copy of a (date, event) pair shares the
    # bucket (sufficient for exact dedup)
    deduped = with_date.map_batches(batch_dedup, batch_format="pyarrow")
    partials = exchange(deduped, "event_id", pair_dedup_day_partials, batch_format="pyarrow")
    # the day sum folds ≤ bucket_count() × days partial rows on the driver
    counts = fold.sum_by_key(partials, _RATE_COUNTS, ["date_utc"])
    return _rate_frame(counts)


def _daily_error_rate_hll(ds, hll_p: int):
    """HLL-sketched distinct rates: a map pass emits one serialized HLL
    partial per (block, day, which in {total, error}); a Ray shuffle
    (``groupby(["date_utc", "which"]).map_groups``, a natural key) merges
    them to one payload per (day, which), and the driver merges what it
    pulls. The shuffle carries the partials (blocks x days x 2 tiny rows),
    never the data."""
    import pickle

    import numpy as np
    import pandas as pd

    from ..stages.sketches import HLL, hash64

    def partials(t: pa.Table) -> pa.Table:
        dates = t["date_utc"].to_numpy(zero_copy_only=False)
        ids = t["event_id"].to_numpy(zero_copy_only=False)
        # a NULL event_id is no event, but its day stays (0 events)
        valid = pc.is_valid(t["event_id"]).to_numpy(zero_copy_only=False)
        errs = pc.equal(t["status"], "error").to_numpy(zero_copy_only=False) & valid
        h = hash64(ids).astype(np.uint64)
        uniq, inv = np.unique(dates, return_inverse=True)
        order = np.argsort(inv, kind="stable")
        bounds = np.searchsorted(inv[order], np.arange(len(uniq) + 1))
        out_d, out_w, out_p = [], [], []
        for k, d in enumerate(uniq):
            seg = order[bounds[k] : bounds[k + 1]]
            hll = HLL(hll_p)
            hll.add_hashes(h[seg[valid[seg]]])
            out_d.append(d)
            out_w.append("total")
            out_p.append(pickle.dumps(hll))
            seg_e = seg[errs[seg]]
            if seg_e.size:
                hll_e = HLL(hll_p)
                hll_e.add_hashes(h[seg_e])
                out_d.append(d)
                out_w.append("error")
                out_p.append(pickle.dumps(hll_e))
        return pa.table(
            {
                "date_utc": pa.array(out_d, pa.string()),
                "which": pa.array(out_w, pa.string()),
                "payload": pa.array(out_p, pa.binary()),
            }
        )

    def merge_group(g: "pd.DataFrame") -> "pd.DataFrame":
        # REAL distributed reduction keyed by (day, which): a plain chained
        # map_batches would be fused into the partial task (verified — the
        # driver kept pulling blocks x days x 2 payloads); the groupby
        # shuffle collapses to exactly one payload per (day, which)
        acc = None
        for p in g["payload"]:
            h = pickle.loads(p)
            acc = h if acc is None else acc.merge(h)
        return pd.DataFrame(
            {
                "date_utc": [g["date_utc"].iloc[0]],
                "which": [g["which"].iloc[0]],
                "payload": [pickle.dumps(acc)],
            }
        )

    merge_group.__name__ = "merge_hll_group"
    rows = (
        _with_date(ds)
        .select_columns(["date_utc", "event_id", "status"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby(["date_utc", "which"])
        .map_groups(merge_group, batch_format="pandas")
        .take_all()
    )
    merged: dict[tuple[str, str], HLL] = {}
    for r in rows:
        key = (r["date_utc"], r["which"])
        hll = pickle.loads(r["payload"])
        if key in merged:
            merged[key].merge(hll)
        else:
            merged[key] = hll
    days = sorted({d for d, _ in merged})
    n_ev = [int(round(merged[(d, "total")].estimate())) for d in days]
    n_err = [
        # the two sketches estimate independently; clamp so a day where every
        # event errors can't report > 100% from opposite-sign HLL noise
        min(
            int(round(merged[(d, "error")].estimate())) if (d, "error") in merged else 0,
            tot,
        )
        for d, tot in zip(days, n_ev)
    ]
    return _rate_frame(pa.table([days, n_ev, n_err], schema=_RATE_COUNTS))


def unique_event_names(ds):
    """Distinct event names (the report's filter widget,
    validation_report.py:85)."""
    def distinct(t: pa.Table) -> pa.Table:
        return t.group_by("event_name", use_threads=False).aggregate([])

    schema = pa.schema([("event_name", pa.string())])
    return fold.sum_by_key(ds, schema, ["event_name"], distinct)["event_name"].drop_null().to_pylist()


def worst_offenders(ds, k: int = 20):
    """Top-k (field, error_type) pairs by violation count — 'worst partitions'
    style report view (SURVEY.md §2.6 O5)."""
    # deterministic top-k: ties broken on (field, error_type) so the LIMIT
    # boundary is engine-independent (shares the DuckDB oracle)
    order = [("n", "descending"), ("field", "ascending"), ("error_type", "ascending")]
    return _error_counts(ds, ["field", "error_type"], "n", order, k)
