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

from ..stages.windows import utc_day

#: partial-count rows the driver buffers before folding them into its
#: running sum: driver memory stays within the output plus one window
FOLD_ROWS = 65_536


def _with_date(ds):
    def add_date(t: pa.Table) -> pa.Table:
        return t.append_column("date_utc", utc_day(t["timestamp"]))

    return ds.map_batches(add_date, batch_format="pyarrow")


def _sum_counts(parts: list[pa.Table], keys: list[str], *cols: str) -> pa.Table:
    t = pa.concat_tables(parts, promote_options="default")
    sums = [f"{c}_sum" for c in cols]
    return t.group_by(keys, use_threads=False).aggregate([(c, "sum") for c in cols]).select(
        [*keys, *sums]
    ).rename_columns([*keys, *cols])


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
    ``k``, with no Ray barrier: the cardinality is bounded (days × fields,
    fields × error types), so each block counts its own errors with Arrow
    ``group_by`` and sends at most one row per key (*DS2*, ICDE 2021), and
    the driver folds the partials into a running sum every FOLD_ROWS rows as
    they stream in. The pull is Σ per-block distinct keys. Returns a Dataset
    of (*keys, n); an empty or all-valid log gives a typed empty one."""

    def count_block(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["status"], "error"))
        c = t.group_by(keys, use_threads=False).aggregate([([], "count_all")])
        return c.select([*keys, "count_all"]).rename_columns([*keys, n])

    acc, window, rows = [], [], 0
    parts = ds.map_batches(count_block, batch_format="pyarrow", batch_size=None)
    for part in parts.iter_batches(batch_size=None, batch_format="pyarrow"):
        window.append(part)
        rows += part.num_rows
        if rows >= FOLD_ROWS:
            acc, window, rows = [_sum_counts(acc + window, keys, n)], [], 0
    if not acc and not window:  # no block at all: the empty log's schema
        empty = {c: pa.array([], pa.string()) for c in keys}
        window = [pa.table({**empty, n: pa.array([], pa.int64())})]
    out = _sum_counts(acc + window, keys, n).sort_by(order)
    return _dataset(out if k is None else out.slice(0, k))


def _dataset(t: pa.Table):
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
        # per-bucket per-day partial counts — the final shuffle carries
        # buckets × days rows, never the event table. A NULL event_id is no
        # event (COUNT(DISTINCT) skips it).
        if t["event_id"].null_count:
            t = t.filter(pc.is_valid(t["event_id"]))
        d = t.group_by(["date_utc", "event_id"], use_threads=False).aggregate(
            [("is_error_max", "max")]
        )
        out = d.group_by("date_utc", use_threads=False).aggregate(
            [([], "count_all"), ("is_error_max_max", "sum")]
        )
        return out.select(["date_utc", "count_all", "is_error_max_max_sum"]).rename_columns(
            _RATE_COUNTS.names
        )

    # keyed by event_id alone: every copy of a (date, event) pair shares the
    # bucket (sufficient for exact dedup)
    deduped = with_date.map_batches(batch_dedup, batch_format="pyarrow")
    partials = exchange(deduped, "event_id", pair_dedup_day_partials, batch_format="pyarrow")

    # final day sum on the driver: the pull is ≤ bucket_count() × days tiny rows
    # (the HLL path's bound class). A Ray groupby(date).aggregate here
    # measured 28.4s over 359k partial rows / 2136 day groups vs 0.25s for
    # this pull — the sort-aggregate cost, not data volume. An empty or
    # block-less log pulls nothing and still gives the typed frame.
    parts = list(partials.iter_batches(batch_size=None, batch_format="pyarrow"))
    counts = _sum_counts(
        [_RATE_COUNTS.empty_table(), *parts], ["date_utc"], "n_events", "n_error_events"
    )
    return _rate_frame(counts.sort_by("date_utc"))


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
        errs = pc.equal(t["status"], "error").to_numpy(zero_copy_only=False)
        h = hash64(ids).astype(np.uint64)
        uniq, inv = np.unique(dates, return_inverse=True)
        order = np.argsort(inv, kind="stable")
        bounds = np.searchsorted(inv[order], np.arange(len(uniq) + 1))
        out_d, out_w, out_p = [], [], []
        for k, d in enumerate(uniq):
            seg = order[bounds[k] : bounds[k + 1]]
            hll = HLL(hll_p)
            hll.add_hashes(h[seg])
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
    return sorted(x for x in ds.unique("event_name") if x is not None)


def worst_offenders(ds, k: int = 20):
    """Top-k (field, error_type) pairs by violation count — 'worst partitions'
    style report view (SURVEY.md §2.6 O5)."""
    # deterministic top-k: ties broken on (field, error_type) so the LIMIT
    # boundary is engine-independent (shares the DuckDB oracle)
    order = [("n", "descending"), ("field", "ascending"), ("error_type", "ascending")]
    return _error_counts(ds, ["field", "error_type"], "n", order, k)
