"""Dataset sources (SURVEY.md §2.1).

The reference's sources are an HTTP-POST event stream (S1), a GCS schema
bucket (S2/S5-S8) and BigQuery read-back (S4). Batch equivalents:

- transcripts / any table: `read_parquet` with column pruning + predicate
  pushdown (the S4 read-back analog too — the violations sink IS parquet)
- violation logs and the conversation stage's input: `read_parquet_per_cpu`,
  one block per session CPU rather than Ray's one read task per MiB
- raw JSON event corpora: `read_json` + envelope normalization (S1 analog —
  one JSON document per line replaces one per HTTP POST)
- spec directory: sources/specs.py (S2/S5-S8)
"""

from __future__ import annotations

import json
from typing import Any

import pyarrow as pa


def read_transcripts(path: str, columns: list[str] | None = None, filter_expr: Any = None):
    """Column-pruned, predicate-pushdown transcript read. Always pass
    `columns` when a stage needs fewer than all six."""
    import ray.data as rd

    kwargs: dict[str, Any] = {}
    if columns:
        kwargs["columns"] = columns
    if filter_expr is not None:
        kwargs["filter"] = filter_expr
    return rd.read_parquet(path, **kwargs)


def read_parquet_per_cpu(paths: str | list[str], **read_kwargs):
    """``read_parquet`` asking for one block per session CPU
    (``override_num_blocks``), not Ray's default of about one read task per
    MiB: each block costs every downstream stage a few ms of scheduling,
    which many small blocks never amortize. Ray keeps its own listing and
    its own empty- and missing-path errors. With no Ray session running it
    reads with Ray's default (the CPU count needs a session)."""
    import ray
    import ray.data as rd

    from ..stages.exchange import session_cpus

    blocks = session_cpus() if ray.is_initialized() else None
    return rd.read_parquet(paths, override_num_blocks=blocks, **read_kwargs)


def read_json_events(
    path: str,
    data_path: str | None = "data",
    event_name_attr: str = "event_name",
):
    """Raw JSON event corpus -> rows of (event_name, payload_json). The
    batch-mode S1: each line is one HTTP-POST body; the envelope is unwrapped
    by `data_path` exactly like the reference (EVENT_DATA_PATH, index.js:14-22)
    and re-serialized so downstream validation (ValidateJsonDocs) sees the
    payload document.

    Uses read_text + per-line parse (NOT read_json): tabular JSON ingestion
    schema-merges heterogeneous documents, turning absent keys into nulls —
    which this engine's semantics must distinguish (missing-field vs
    null-type violations)."""
    import ray.data as rd

    from ..oracle import UNDEFINED, get_by_path

    ds = rd.read_text(path)

    def unwrap(batch: pa.Table) -> pa.Table:
        names, payloads = [], []
        for line in batch["text"].to_pylist():
            try:
                body = json.loads(line)
            except (json.JSONDecodeError, TypeError):
                names.append(None)
                payloads.append(None)
                continue
            doc = get_by_path(body, data_path)
            if doc is UNDEFINED or not isinstance(doc, dict):
                names.append(None)
                payloads.append(None)
                continue
            name = get_by_path(doc, event_name_attr)
            names.append(name if isinstance(name, str) else None)
            payloads.append(json.dumps(doc, separators=(",", ":")))
        return pa.table(
            {
                "event_name": pa.array(names, pa.string()),
                "payload": pa.array(payloads, pa.string()),
            }
        )

    return ds.map_batches(unwrap, batch_format="pyarrow")


def read_violations_dir(path: str, date_from: str | None = None, date_to: str | None = None):
    """Violations read-back with date-range predicate pushdown — the
    reporting plane's input (the reference queries BigQuery for a date range,
    validation_report.py:31-43). One block per session CPU
    (``read_parquet_per_cpu``), or Ray's default read when no Ray session
    is running."""
    import datetime as _dt

    import pyarrow.compute as pc

    def ts_scalar(s):
        # ISO date/datetime string -> timestamp scalar (a bare string scalar
        # has no comparison kernel against timestamp[us])
        return pa.scalar(_dt.datetime.fromisoformat(s) if isinstance(s, str) else s)

    flt = None
    if date_from:
        flt = pc.field("timestamp") >= ts_scalar(date_from)
    if date_to:
        if isinstance(date_to, str) and len(date_to) == 10:
            # bare END DATE is inclusive of the whole day (BigQuery-report
            # range semantics): ts < date_to + 1 day, not ts <= midnight
            end = _dt.datetime.fromisoformat(date_to) + _dt.timedelta(days=1)
            cond = pc.field("timestamp") < pa.scalar(end)
        else:
            cond = pc.field("timestamp") <= ts_scalar(date_to)
        flt = cond if flt is None else (flt & cond)
    return read_parquet_per_cpu(path, filter=flt) if flt is not None else read_parquet_per_cpu(path)
