"""The bounded fold (`stages/fold.py`) and the sites built on it: NULL keys
and NaN float keys each form one group, a key present in every block is
summed once, the output is sorted by its keys; every ported count and
payload site gives the same output at a one-row / one-byte driver window as
at the default; and empty or block-less inputs give typed results."""

import math

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from events_validator_ray.pipelines import report
from events_validator_ray.stages import fold
from events_validator_ray.stages.validate import VIOLATION_SCHEMA
from test_dedup_oracle import SF_DIR

DAY_US = 86_400_000_000
BASE_US = 1_704_067_200_000_000


def _split(t: pa.Table, n: int) -> list[pa.Table]:
    step = -(-len(t) // n)
    return [t.slice(i * step, step) for i in range(n)]


def _keyed_blocks() -> list[pa.Table]:
    """Three blocks of (k float, s string, n, m): NULL and NaN keys in
    every block, and (1.0, 'a') in every block."""
    nan = float("nan")
    return [
        pa.table(
            {
                "k": pa.array([1.0, nan, None, 2.0 + b, nan, None], pa.float64()),
                "s": pa.array(["a", None, "b", "c", None, "b"]),
                "n": pa.array([i * (b + 1) for i in range(1, 7)], pa.int64()),
                "m": pa.array([10] * 6, pa.int64()),
            }
        )
        for b in range(3)
    ]


SCHEMA = pa.schema([("k", pa.float64()), ("s", pa.string()), ("n", pa.int64()), ("m", pa.int64())])


def _twin(sql: str, blocks: list[pa.Table]) -> list[tuple]:
    con = duckdb.connect()
    con.register("t", pa.concat_tables(blocks))
    return con.sql(sql).fetchall()


def _rows(t: pa.Table) -> list[tuple]:
    return list(zip(*(c.to_pylist() for c in t.columns)))


def _same(a, b) -> bool:
    """Row equality where NaN equals NaN."""
    return len(a) == len(b) and all(
        len(x) == len(y)
        and all(u == v or (isinstance(u, float) and isinstance(v, float) and math.isnan(u) and math.isnan(v)) for u, v in zip(x, y))
        for x, y in zip(a, b)
    )


def test_null_and_nan_keys_each_form_one_group(ray_session):
    """One NULL group and one NaN group, as SQL GROUP BY gives them, sorted
    after every number (NaN, then NULL)."""
    import ray.data as rd

    blocks = _keyed_blocks()
    schema = pa.schema([SCHEMA.field("k"), SCHEMA.field("n")])
    out = fold.sum_by_key(rd.from_arrow(blocks), schema, ["k"])
    want = _twin("SELECT k, SUM(n) FROM t GROUP BY k", blocks)
    got = _rows(out)
    assert [k for k, _ in got][:4] == [1.0, 2.0, 3.0, 4.0]
    assert math.isnan(got[4][0]) and got[5][0] is None and len(got) == 6
    assert sorted(n for _, n in got) == sorted(n for _, n in want)


def test_key_in_every_block_is_summed_once(ray_session):
    """(1.0, 'a') sits in all three blocks: one output row with the total,
    whether or not a partial function runs per block."""
    import ray.data as rd

    blocks = _keyed_blocks()

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(["k", "s"], use_threads=False).aggregate([("n", "sum"), ("m", "sum")])
        return g.select(["k", "s", "n_sum", "m_sum"]).rename_columns(SCHEMA.names)

    for fn in (None, partial):
        out = fold.sum_by_key(rd.from_arrow(blocks), SCHEMA, ["k", "s"], fn)
        hits = [r for r in _rows(out) if r[:2] == (1.0, "a")]
        assert hits == [(1.0, "a", 1 + 2 + 3, 30)]
        assert out.schema == SCHEMA


def test_output_is_sorted_by_keys(ray_session):
    """Sorted by (k, s) ascending, NULLs last, as DuckDB's ORDER BY."""
    import ray.data as rd

    blocks = _keyed_blocks()
    out = fold.sum_by_key(rd.from_arrow(blocks[::-1]), SCHEMA, ["k", "s"])
    want = _twin(
        "SELECT k, s, SUM(n)::BIGINT, SUM(m)::BIGINT FROM t GROUP BY k, s "
        "ORDER BY k NULLS LAST, s NULLS LAST",
        blocks,
    )
    assert _same(_rows(out), want)


def _log() -> list[pa.Table]:
    """Three VIOLATION_SCHEMA blocks over four days, with NULL timestamps,
    fields and event ids."""
    rng = np.random.default_rng(5)
    blocks = []
    for _ in range(3):
        n = 150
        ts = BASE_US + rng.integers(-1, 3, n) * DAY_US + rng.integers(0, DAY_US, n)
        cols = {
            "event_id": [None if r < 0.05 else f"e{i}" for r, i in zip(rng.random(n), rng.integers(0, 70, n))],
            "field": [None if r < 0.15 else f"f{int(r * 4)}" for r in rng.random(n)],
            "error_type": [f"t{i}" for i in rng.integers(0, 3, n)],
            "timestamp": [None if r < 0.1 else int(v) for r, v in zip(rng.random(n), ts)],
            "status": np.where(rng.random(n) < 0.6, "error", "valid").tolist(),
            "event_name": [f"ev{i}" for i in rng.integers(0, 5, n)],
        }
        blocks.append(pa.table({f.name: pa.array(cols.get(f.name, [None] * n), f.type) for f in VIOLATION_SCHEMA}))
    return blocks


def _state(obj):
    """A sketch's state, comparable whatever its merge order."""
    return {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in vars(obj).items()}


def _site_outputs():
    """Every ported count and payload site, on multi-block inputs, as
    comparable values."""
    import ray.data as rd

    import __ray_entry__ as entry
    from events_validator_ray.stages.assembly import role_transitions
    from events_validator_ray.stages.dedup import dup_cluster_stats
    from events_validator_ray.stages.sampling import _float_quantile_threshold
    from events_validator_ray.stages.similarity import cluster_purity, kmeans_fit, kmeans_fit_local
    from events_validator_ray.stages.sketches import heavy_hitters_exact, sketch_dataset
    from events_validator_ray.stages.text import lang_mix
    from events_validator_ray.stages.windows import funnel_counts, retention_cohorts, user_growth
    from events_validator_ray.sources.transcripts import ensure_transcripts

    log = rd.from_arrow(_log())
    events = rd.from_arrow(_split(pq.read_table(f"{SF_DIR}/events.parquet"), 4))
    docs = rd.from_arrow(_split(pq.read_table(f"{SF_DIR}/documents.parquet"), 3))
    emb_t = pq.read_table(f"{SF_DIR}/embeddings.parquet")
    emb = rd.from_arrow(_split(emb_t, 3))
    # integer-valued vectors: the k-means sums are exact in any order
    rng = np.random.default_rng(2)
    int_emb = pa.table(
        {
            "vec_id": pa.array(np.arange(300), pa.int64()),
            "embedding": pa.array(rng.integers(-8, 8, (300, 4)).astype(np.float32).tolist(), pa.list_(pa.float32())),
        }
    )
    ints = pa.table({"x": pa.array(rng.integers(0, 50, 900)), "c": pa.array(rng.choice(["p", "q", "r"], 900))})
    labels = rd.from_arrow(_split(pa.table({"doc_id": np.arange(400), "cluster": rng.integers(0, 150, 400)}), 3))
    q = entry.queries()
    sites = {
        "failures_by_day": lambda: report.failures_by_day(log).to_pandas(),
        "worst_offenders": lambda: report.worst_offenders(log, k=5).to_pandas(),
        "daily_error_rate": lambda: report.daily_error_rate(log),
        "unique_event_names": lambda: report.unique_event_names(log),
        "role_transitions": lambda: role_transitions(rd.read_parquet(ensure_transcripts(0.001))).to_pandas(),
        "funnel_counts": lambda: funnel_counts(events, ["view", "click", "purchase"]).to_pandas(),
        "user_growth": lambda: user_growth(events).to_pandas(),
        "retention_cohorts": lambda: retention_cohorts(events).to_pandas(),
        "lang_mix": lambda: lang_mix(docs).to_pandas(),
        "cluster_purity": lambda: cluster_purity(emb, kmeans_fit_local(emb_t)).to_pandas(),
        "dup_cluster_stats": lambda: dup_cluster_stats(labels).to_pandas(),
        "heavy_hitters": lambda: heavy_hitters_exact(events, "event_type", 100).to_pandas(),
        "quantiles_exact": lambda: q["quantiles_exact"](SF_DIR),
        "broadcast_join": lambda: q["broadcast_join"](SF_DIR).to_pandas(),
        "float_quantile": lambda: [
            _float_quantile_threshold(events, "value", p, bins=8, refine_cap=40) for p in (0.1, 0.5, 0.9)
        ],
        "sketch_dataset": lambda: {
            k: _state(v)
            for k, v in sketch_dataset(
                rd.from_arrow(_split(ints, 5)), {"x": ("stats", "hll", "numhist:0:50:10"), "c": ("cathist",)}
            ).items()
        },
        "kmeans_fit": lambda: kmeans_fit(rd.from_arrow(_split(int_emb, 4)), k=3, iters=2).tolist(),
    }
    return sites


def _equal(a, b) -> bool:
    if isinstance(a, pd.DataFrame):
        pd.testing.assert_frame_equal(a, b)
        return True
    return a == b


def test_every_site_is_window_independent(ray_session, monkeypatch):
    """At a one-row count window and a one-byte payload window the driver
    re-folds after every partial; every site's output equals the default
    window's (the t-digest, whose merge is order-sensitive, is left out)."""
    sites = _site_outputs()
    whole = {name: fn() for name, fn in sites.items()}
    for name, out in whole.items():
        assert len(out) > 0, name
    monkeypatch.setattr(fold, "FOLD_ROWS", 1)
    monkeypatch.setattr(fold, "FOLD_WINDOW_BYTES", 1)
    for name, fn in sites.items():
        assert _equal(fn(), whole[name]), name


def _empty_inputs(kind: str):
    """(name, call, expected columns and dtypes) per operator, over an
    empty or block-less input of the operator's own schema."""
    import ray.data as rd

    from events_validator_ray.stages.assembly import role_transitions
    from events_validator_ray.stages.dedup import dup_cluster_stats
    from events_validator_ray.stages.sampling import _float_quantile_threshold
    from events_validator_ray.stages.similarity import cluster_purity
    from events_validator_ray.stages.sketches import heavy_hitters_exact, sketch_dataset
    from events_validator_ray.stages.text import lang_mix
    from events_validator_ray.stages.windows import funnel_counts, retention_cohorts, user_growth

    def ds(t: pa.Table):
        return rd.from_arrow(t.slice(0, 0)) if kind == "empty" else rd.from_arrow(t).limit(0)

    log_blocks = _log()
    if kind == "all_valid":
        log = rd.from_arrow([b.set_column(b.schema.get_field_index("status"), "status", pa.array(["valid"] * len(b))) for b in log_blocks])
    else:
        log = ds(log_blocks[0])
    rate = {"date_utc": "object", "n_events": "int64", "n_error_events": "int64", "error_rate": "float64"}
    cases = [
        ("failures_by_day", lambda: report.failures_by_day(log), {"date_utc": "object", "field": "object", "n_failures": "int64"}),
        ("worst_offenders", lambda: report.worst_offenders(log), {"field": "object", "error_type": "object", "n": "int64"}),
        ("daily_error_rate", lambda: report.daily_error_rate(log), rate),
        ("daily_error_rate_hll", lambda: report.daily_error_rate(log, approx=True), rate),
        ("unique_event_names", lambda: pd.DataFrame({"event_name": report.unique_event_names(log)}, dtype=object), {"event_name": "object"}),
    ]
    if kind == "all_valid":
        return cases
    events = ds(pq.read_table(f"{SF_DIR}/events.parquet"))
    emb = ds(pq.read_table(f"{SF_DIR}/embeddings.parquet"))
    turns = pa.table(
        {"conv_id": pa.array(["c"]), "turn_idx": pa.array([0], pa.int64()), "role": pa.array(["user"]), "text": pa.array(["hi"])}
    )
    i64 = "int64"
    return cases + [
        ("role_transitions", lambda: role_transitions(ds(turns)), {"from_role": "object", "to_role": "object", "n": i64}),
        ("funnel_counts", lambda: funnel_counts(events, ["view", "click"]), {"stage_idx": i64, "stage": "object", "n_users": i64}),
        ("user_growth", lambda: user_growth(events), {"date_utc": "object", "n_new": i64, "n_cum": i64}),
        ("retention_cohorts", lambda: retention_cohorts(events), {"cohort_date": "object", "day_offset": i64, "n_users": i64}),
        ("lang_mix", lambda: lang_mix(ds(pq.read_table(f"{SF_DIR}/documents.parquet"))), {"source": "object", "lang_pred": "object", "n": i64}),
        (
            "cluster_purity",
            lambda: cluster_purity(emb, np.zeros((2, 16))),
            {"cluster_id": i64, "n_vectors": i64, "top_label": i64, "n_top": i64},
        ),
        (
            "dup_cluster_stats",
            lambda: dup_cluster_stats(ds(pa.table({"doc_id": [1], "cluster": [1]}))),
            {"cluster_size": i64, "n_clusters": i64},
        ),
        ("heavy_hitters", lambda: heavy_hitters_exact(events, "event_type"), {"event_type": "object", "n": i64}),
        ("sketch_dataset", lambda: sketch_dataset(events, {"value": ("stats", "hll")}), {}),
        ("float_quantile", lambda: _float_quantile_threshold(events, "value", 0.5), None),
    ]


@pytest.mark.parametrize("kind", ["empty", "no_blocks", "all_valid"])
def test_empty_results_keep_their_columns(ray_session, kind):
    """Every ported operator, and the report plane's three views, give a
    result whose frame has its columns and dtypes on an empty input, on a
    block-less input and (for the log views) on an all-valid log, with no
    rows or no error rows."""
    for name, call, want in _empty_inputs(kind):
        out = call()
        if not isinstance(want, dict) or isinstance(out, dict):
            assert out == want, name  # no sketch, no threshold
            continue
        frame = out if isinstance(out, pd.DataFrame) else out.to_pandas()
        assert {c: str(t) for c, t in frame.dtypes.items()} == want, name
        if kind != "all_valid" or name in ("failures_by_day", "worst_offenders"):
            assert len(frame) == 0, name
        elif name.startswith("daily_error_rate"):
            assert len(frame) and frame["n_error_events"].sum() == 0, name
