"""The report plane (`pipelines/report.py`): failures_by_day and
worst_offenders fold per-block counts on the driver and must equal their
DuckDB twins, whatever the fold window; empty inputs keep a typed schema;
every Arrow day string (`windows.utc_day`) equals DuckDB's strftime; and the
log read-back (`sources/readers.py:read_parquet_per_cpu`) asks Ray for one
block per session CPU, reads the files Ray lists, and still reads with no
Ray session running."""

import datetime as dt
import os
import subprocess
import sys

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from events_validator_ray.pipelines import report
from events_validator_ray.sources import readers
from events_validator_ray.stages import fold
from events_validator_ray.stages.validate import VIOLATION_SCHEMA
from events_validator_ray.stages.windows import utc_day

DAY_US = 86_400_000_000
BASE_US = 1_704_067_200_000_000
TWIN_DAY = "COALESCE(strftime(timestamp, '%Y-%m-%d'), '(null)')"


def _log_blocks() -> list[pa.Table]:
    """Three VIOLATION_SCHEMA blocks over four days: NULL timestamps, NULL
    fields, and the same (day, field) in every block."""
    rng = np.random.default_rng(21)
    blocks = []
    for _ in range(3):
        n = 120
        ts = BASE_US + rng.integers(-1, 3, n) * DAY_US + rng.integers(0, DAY_US, n)
        cols = {
            "event_id": [f"e{i}" for i in rng.integers(0, 60, n)],
            "field": [None if r < 0.15 else f"f{int(r * 4)}" for r in rng.random(n)],
            "error_type": [f"t{i}" for i in rng.integers(0, 3, n)],
            "timestamp": [None if r < 0.1 else int(v) for r, v in zip(rng.random(n), ts)],
            "status": np.where(rng.random(n) < 0.6, "error", "valid").tolist(),
        }
        blocks.append(
            pa.table(
                {f.name: pa.array(cols.get(f.name, [None] * n), f.type) for f in VIOLATION_SCHEMA}
            )
        )
    return blocks


def _twin(sql: str, blocks: list[pa.Table]) -> pd.DataFrame:
    con = duckdb.connect()
    con.register("log", pa.concat_tables(blocks))
    return con.sql(sql).df()


def _frame(ds) -> pd.DataFrame:
    df = ds.to_pandas()
    return df.astype(object).where(df.notna(), None)


@pytest.mark.parametrize("fold_rows", [fold.FOLD_ROWS, 1])
def test_failures_by_day_matches_twin(ray_session, monkeypatch, fold_rows):
    """Same rows as the twin, in (date_utc, field) order, whether the
    driver folds once or after every partial."""
    import ray.data as rd

    monkeypatch.setattr(fold, "FOLD_ROWS", fold_rows)
    blocks = _log_blocks()
    got = _frame(report.failures_by_day(rd.from_arrow(blocks)))
    want = _twin(
        f"SELECT {TWIN_DAY} AS date_utc, field, COUNT(*) AS n_failures FROM log "
        "WHERE status = 'error' GROUP BY ALL ORDER BY date_utc, field NULLS LAST",
        blocks,
    )
    assert list(got.columns) == ["date_utc", "field", "n_failures"]
    assert got.values.tolist() == want.astype(object).where(want.notna(), None).values.tolist()
    assert "(null)" in set(got["date_utc"]) and got["field"].isna().any()
    per_block = [
        {(d, f) for d, f in _frame(report.failures_by_day(rd.from_arrow(b)))[["date_utc", "field"]].values}
        for b in blocks
    ]
    assert set.intersection(*per_block)  # a (day, field) the fold must sum


@pytest.mark.parametrize("fold_rows", [fold.FOLD_ROWS, 1])
def test_worst_offenders_matches_twin(ray_session, monkeypatch, fold_rows):
    import ray.data as rd

    monkeypatch.setattr(fold, "FOLD_ROWS", fold_rows)
    blocks = _log_blocks()
    got = _frame(report.worst_offenders(rd.from_arrow(blocks), k=7))
    want = _twin(
        "SELECT field, error_type, COUNT(*) AS n FROM log WHERE status = 'error' "
        "GROUP BY ALL ORDER BY n DESC, field NULLS LAST, error_type LIMIT 7",
        blocks,
    )
    assert got.values.tolist() == want.astype(object).where(want.notna(), None).values.tolist()


@pytest.mark.parametrize("kind", ["empty", "all_valid", "no_blocks"])
def test_empty_report_is_typed(ray_session, kind):
    """An empty, all-valid or block-less log gives typed empty reports, as
    Datasets and as frames."""
    import ray.data as rd

    blocks = _log_blocks()
    if kind == "empty":
        ds = rd.from_arrow([b.slice(0, 0) for b in blocks])
    elif kind == "all_valid":
        ds = rd.from_arrow(
            [b.set_column(b.schema.get_field_index("status"), "status", pa.array(["valid"] * len(b))) for b in blocks]
        )
    else:
        ds = rd.from_arrow(blocks[0]).filter(lambda r: False)
    for out, cols in (
        (report.failures_by_day(ds), ["date_utc", "field", "n_failures"]),
        (report.worst_offenders(ds), ["field", "error_type", "n"]),
    ):
        assert out.count() == 0 and out.take_all() == []
        schema = out.schema()
        assert list(schema.names) == cols
        assert list(schema.types) == [pa.string(), pa.string(), pa.int64()]
        # Ray skips empty blocks as it iterates: the frame must still have
        # its columns
        assert list(out.to_pandas().columns) == cols
    rate = report.daily_error_rate(ds)
    assert list(rate.columns) == ["date_utc", "n_events", "n_error_events", "error_rate"]
    assert rate["n_error_events"].sum() == 0


def _rate_blocks() -> list[pa.Table]:
    """Four VIOLATION_SCHEMA blocks over three days plus NULL timestamps:
    every event id sits in several blocks, an error row in one and valid
    rows in others, so only the exchange's bucket sees both; some event ids
    are NULL."""
    rng = np.random.default_rng(33)
    blocks = []
    for b in range(4):
        n = 200
        ids = rng.integers(0, 150, n)
        ts = BASE_US + (ids % 3) * DAY_US + rng.integers(0, DAY_US, n)
        cols = {
            "event_id": [None if r < 0.03 else f"ev{i}" for r, i in zip(rng.random(n), ids)],
            "timestamp": [None if i % 10 == 0 else int(v) for i, v in zip(ids, ts)],
            "status": ["error" if (i + b) % 4 == 0 else "valid" for i in ids],
        }
        blocks.append(
            pa.table(
                {f.name: pa.array(cols.get(f.name, [None] * n), f.type) for f in VIOLATION_SCHEMA}
            )
        )
    return blocks


@pytest.mark.parametrize("buckets", [1, 7, 256])
def test_daily_error_rate_across_buckets_matches_twin(ray_session, force_buckets, buckets):
    """The exact daily_error_rate equals its DuckDB twin at 1, 7 and 256
    buckets, on a log whose event ids are error in one block and valid in
    another, with a `(null)` day and NULL event ids."""
    import ray.data as rd

    force_buckets(buckets)
    blocks = _rate_blocks()
    rate = report.daily_error_rate(rd.from_arrow(blocks))
    want = _twin(
        f"SELECT {TWIN_DAY} AS date_utc, COUNT(DISTINCT event_id) AS n_events, "
        "COUNT(DISTINCT event_id) FILTER (WHERE status = 'error') AS n_error_events "
        "FROM log GROUP BY ALL ORDER BY date_utc",
        blocks,
    ).values.tolist()
    assert list(rate.columns) == ["date_utc", "n_events", "n_error_events", "error_rate"]
    assert [str(t) for t in rate.dtypes] == ["object", "int64", "int64", "float64"]
    assert rate[["date_utc", "n_events", "n_error_events"]].values.tolist() == want
    assert rate["error_rate"].tolist() == [round(100.0 * e / n, 6) for _, n, e in want]
    assert len(want) == 4 and want[0][0] == "(null)"
    assert all(0 < e < n for _, n, e in want)
    # an event id that is error in one block and valid in another
    ids = [{s: {r["event_id"] for r in b.to_pylist() if r["status"] == s} for s in ("error", "valid")} for b in blocks]
    assert any(ids[i]["error"] & ids[j]["valid"] for i in range(4) for j in range(4) if i != j)


@pytest.mark.parametrize("approx", [False, True])
def test_daily_error_rate_keeps_a_day_of_null_event_ids(ray_session, approx):
    """A day whose rows all have a NULL event id stays, with 0 events and
    0 error events, as in the twin's COUNT(DISTINCT event_id) ... GROUP BY
    date_utc; a NULL id is no event in either path."""
    import ray.data as rd

    cols = {
        "event_id": ["a", None, None],
        "timestamp": [BASE_US, BASE_US + DAY_US, BASE_US + DAY_US + 5],
        "status": ["valid", "error", "error"],
    }
    log = [pa.table({f.name: pa.array(cols.get(f.name, [None] * 3), f.type) for f in VIOLATION_SCHEMA})]
    rate = report.daily_error_rate(rd.from_arrow(log), approx=approx)
    want = _twin(
        f"SELECT {TWIN_DAY} AS date_utc, COUNT(DISTINCT event_id) AS n_events, "
        "COUNT(DISTINCT event_id) FILTER (WHERE status = 'error') AS n_error_events "
        "FROM log GROUP BY ALL ORDER BY date_utc",
        log,
    ).values.tolist()
    assert want == [["2024-01-01", 1, 0], ["2024-01-02", 0, 0]]
    assert rate[["date_utc", "n_events", "n_error_events"]].values.tolist() == want


def _us(y, m, d, hh=0, mm=0, ss=0, us=0) -> int:
    delta = dt.datetime(y, m, d, hh, mm, ss, us) - dt.datetime(1970, 1, 1)
    return (delta.days * 86_400 + delta.seconds) * 1_000_000 + delta.microseconds


DAY_EDGES = [
    None,
    -1,
    -DAY_US - 1,
    0,
    _us(1, 1, 1),
    _us(1, 1, 1, 23, 59, 59, 999_999),
    _us(9999, 12, 31, 23, 59, 59, 999_999),
    BASE_US,
]


@pytest.mark.parametrize("tz", [None, "UTC"])
def test_utc_day_matches_duckdb_strftime(ray_session, tz):
    """NULL, just before the epoch, one day and 1 µs before it, year 1 and
    year 9999 render as DuckDB's COALESCE(strftime(ts, '%Y-%m-%d'), '(null)'),
    in the helper and in the report plane's date_utc column."""
    import ray.data as rd

    ts = pa.array(DAY_EDGES, pa.timestamp("us", tz=tz))
    con = duckdb.connect()
    con.register("t", pa.table({"i": np.arange(len(ts)), "timestamp": ts.cast(pa.timestamp("us"))}))
    want = [r[0] for r in con.sql(f"SELECT {TWIN_DAY} FROM t ORDER BY i").fetchall()]
    assert want[:3] == ["(null)", "1969-12-31", "1969-12-30"]
    assert want[4:7] == ["0001-01-01", "0001-01-01", "9999-12-31"]
    assert utc_day(ts).to_pylist() == want
    dated = report._with_date(rd.from_arrow(pa.table({"timestamp": ts}))).take_all()
    assert [r["date_utc"] for r in dated] == want


def _write_log(root, n_files: int) -> dict[str, pa.Table]:
    """`_log_blocks` cut into ``n_files`` parquet files over two partition
    dirs, plus a leftover ``.tmp_*`` dir and ``_``-prefixed files that a
    read must skip. Returns the files that count, path -> table."""
    rows = pa.concat_tables(_log_blocks())
    step = -(-len(rows) // n_files)
    files = {}
    for i in range(n_files):
        part = os.path.join(root, f"part_{i % 2:05d}")
        os.makedirs(part, exist_ok=True)
        files[os.path.join(part, f"{i:03d}.parquet")] = rows.slice(i * step, step)
    for path, t in files.items():
        pq.write_table(t, path)
    os.makedirs(os.path.join(root, ".tmp_part_00002_x"))
    pq.write_table(rows, os.path.join(root, ".tmp_part_00002_x", "000.parquet"))
    pq.write_table(rows, os.path.join(root, "part_00000", "_partial.parquet"))
    pq.write_table(rows, os.path.join(root, "_extra.parquet"))
    return files


@pytest.mark.parametrize("n_files,blocks", [(12, 4), (3, 6), (1, 4)])
def test_log_read_block_counts(ray_session, tmp_path, n_files, blocks):
    """The read asks for 4 blocks in the 4-CPU session. Ray reads with
    min(files, 4) tasks and splits each task's output until there are at
    least 4 blocks: 12 files read as 4 blocks, 3 files as 3 tasks x 2, one
    file as 4. The ``.tmp_*`` dir and ``_``-prefixed files are neither read
    nor counted."""
    files = _write_log(tmp_path, n_files)
    log = readers.read_violations_dir(str(tmp_path)).materialize()
    assert log.num_blocks() == blocks
    assert log.count() == sum(len(t) for t in files.values())
    read = readers.read_parquet_per_cpu(str(tmp_path), include_paths=True).take_all()
    assert {r["path"] for r in read} == set(files)


def test_log_read_without_ray_session(ray_session, tmp_path):
    """A script that has not started Ray can still read a log back: the
    helper then leaves the block count to Ray, whose read starts (here:
    joins) a session."""
    files = _write_log(tmp_path, 3)
    code = (
        "import sys, ray\n"
        "from events_validator_ray.sources.readers import read_violations_dir\n"
        "assert not ray.is_initialized()\n"
        "print(read_violations_dir(sys.argv[1]).count())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert int(out.stdout.split()[-1]) == sum(len(t) for t in files.values())


def test_report_over_log_read_matches_twins(ray_session, tmp_path):
    """failures_by_day, worst_offenders and the exact daily_error_rate over
    the read-back of a 12-file log equal their DuckDB twins."""
    tables = list(_write_log(tmp_path, 12).values())
    log = readers.read_violations_dir(str(tmp_path)).materialize()

    def twin(sql: str) -> list:
        df = _twin(sql, tables)
        return df.astype(object).where(df.notna(), None).values.tolist()

    assert _frame(report.failures_by_day(log)).values.tolist() == twin(
        f"SELECT {TWIN_DAY} AS date_utc, field, COUNT(*) AS n_failures FROM log "
        "WHERE status = 'error' GROUP BY ALL ORDER BY date_utc, field NULLS LAST"
    )
    assert _frame(report.worst_offenders(log, k=7)).values.tolist() == twin(
        "SELECT field, error_type, COUNT(*) AS n FROM log WHERE status = 'error' "
        "GROUP BY ALL ORDER BY n DESC, field NULLS LAST, error_type LIMIT 7"
    )
    rate = report.daily_error_rate(log)
    want = twin(
        f"SELECT {TWIN_DAY} AS date_utc, COUNT(DISTINCT event_id) AS n_events, "
        "COUNT(DISTINCT event_id) FILTER (WHERE status = 'error') AS n_error_events "
        "FROM log GROUP BY ALL ORDER BY date_utc"
    )
    assert rate[["date_utc", "n_events", "n_error_events"]].values.tolist() == want
    assert rate["error_rate"].tolist() == [round(100.0 * e / n, 6) for _, n, e in want]
