"""Sketch correctness: mergeability + accuracy vs exact computations."""

import pickle

import numpy as np
import pyarrow as pa
import pytest

from events_validator_ray.stages.sketches import (
    HLL,
    CatHist,
    ColumnStats,
    TDigest,
    chi_square,
    hash64,
    psi,
    profile_table,
    sketch_dataset,
)


def test_hash64_stable():
    a = hash64(np.array(["x", "y", "x"], dtype=object))
    assert a[0] == a[2] != a[1]
    # stable across calls (and, by pandas contract, across processes)
    assert np.array_equal(a, hash64(np.array(["x", "y", "x"], dtype=object)))


def test_hll_accuracy_and_merge():
    rng = np.random.default_rng(0)
    vals = rng.integers(0, 50_000, 200_000)
    h1, h2 = HLL(), HLL()
    h1.add_values(vals[:100_000])
    h2.add_values(vals[100_000:])
    merged = h1.merge(h2)
    exact = len(np.unique(vals))
    est = merged.estimate()
    assert abs(est - exact) / exact < 0.02  # p=14 -> ~0.8% standard error


def test_hll_partition_invariance():
    vals = np.arange(30_000)
    whole = HLL()
    whole.add_values(vals)
    parts = HLL()
    for chunk in np.array_split(vals, 7):
        h = HLL()
        h.add_values(chunk)
        parts.merge(h)
    assert whole.estimate() == pytest.approx(parts.estimate())


def test_tdigest_quantiles():
    rng = np.random.default_rng(1)
    vals = rng.normal(100, 15, 100_000)
    td = TDigest()
    for chunk in np.array_split(vals, 20):
        part = TDigest()
        part.add_values(chunk)
        td.merge(part)
    for q in (0.1, 0.5, 0.9, 0.99):
        exact = np.quantile(vals, q)
        assert abs(td.quantile(q) - exact) < 1.0  # within ~0.07 sigma


def test_column_stats_merge():
    a = pa.chunked_array([pa.array([1.0, 2.0, None, 4.0])])
    b = pa.chunked_array([pa.array([0.5, None, 10.0])])
    s1, s2 = ColumnStats("x"), ColumnStats("x")
    s1.add_column(a)
    s2.add_column(b)
    s1.merge(s2)
    assert s1.count == 7 and s1.nulls == 2
    assert s1.min == 0.5 and s1.max == 10.0
    assert s1.mean() == pytest.approx((1 + 2 + 4 + 0.5 + 10) / 5)


def test_cathist_and_drift():
    h1, h2 = CatHist(), CatHist()
    h1.add_column(pa.chunked_array([pa.array(["a", "a", "b", None])]))
    h2.add_column(pa.chunked_array([pa.array(["b", "c"])]))
    h1.merge(h2)
    assert h1.counts["a"] == 2 and h1.counts["b"] == 2 and h1.counts["c"] == 1
    assert h1.counts[CatHist.NULL] == 1
    same = psi({"a": 50, "b": 50}, {"a": 500, "b": 500})
    assert same == pytest.approx(0.0, abs=1e-9)
    shifted = psi({"a": 90, "b": 10}, {"a": 50, "b": 50})
    assert shifted > 0.2
    assert chi_square({"a": 50, "b": 50}, {"a": 50, "b": 50}) == pytest.approx(0.0)


def test_sketch_dataset_end_to_end(ray_session):
    import ray.data as rd

    from events_validator_ray.sources.transcripts import ensure_transcripts

    d = ensure_transcripts(0.001)
    ds = rd.read_parquet(d)
    plan = {
        "conv_id": ("stats", "hll"),
        "turn_idx": ("stats", "tdigest"),
        "role": ("cathist",),
    }
    sk = sketch_dataset(ds, plan)
    prof = profile_table(sk)
    row = prof[prof.column == "conv_id"].iloc[0]
    exact_distinct = len(set(ds.unique("conv_id")))
    assert row["count"] == ds.count()
    assert abs(row["approx_distinct"] - exact_distinct) / exact_distinct < 0.05
    roles = sk[("role", "cathist")].counts
    assert roles["user"] > 0 and roles["assistant"] > 0


def test_sketch_combine_fanin_bounded(ray_session, monkeypatch):
    """The driver folds partials as they stream in and holds at most one
    window of them: with the window forced below one partial, the combine
    level fires on every pull, so between pulls the driver holds one
    payload per (col, kind) — never one per (block × col × kind) — and the
    merged sketch is still exact. At the default window nothing combines."""
    import pandas as pd
    import ray.data as rd

    from events_validator_ray.stages import fold

    n_blocks = 32
    df = pd.DataFrame({"x": np.arange(20_000), "y": np.arange(20_000) % 7})
    ds = rd.from_pandas(df).repartition(n_blocks).materialize()
    plan = {"x": ("stats", "hll"), "y": ("stats",)}  # 3 (col, kind) keys
    pulled, held, combines = [], [], []
    real_add, real_combine = fold.PayloadFold.add, fold.PayloadFold._combine

    def add(self, rows):
        pulled.append(rows.num_rows)
        real_add(self, rows)
        held.append(max(len(p) for p in self.held.values()))

    def combine(self):
        combines.append(self.held_bytes)
        real_combine(self)

    monkeypatch.setattr(fold.PayloadFold, "add", add)
    monkeypatch.setattr(fold.PayloadFold, "_combine", combine)
    whole = sketch_dataset(ds, plan)
    assert sum(pulled) == n_blocks * 3 and not combines

    pulled.clear(), held.clear()
    monkeypatch.setattr(fold, "FOLD_WINDOW_BYTES", 1)
    sk = sketch_dataset(ds, plan)
    assert sum(pulled) == n_blocks * 3
    assert len(combines) == len(pulled) and max(held) == 1
    st = sk[("x", "stats")]
    assert st.count == 20_000 and st.min == 0 and st.max == 19_999
    assert st.sum == whole[("x", "stats")].sum == sum(range(20_000))
    assert sk[("y", "stats")].sumsq == whole[("y", "stats")].sumsq
    assert np.array_equal(sk[("x", "hll")].registers, whole[("x", "hll")].registers)


@pytest.mark.parametrize("dtype", [pa.int32(), pa.int64()])
def test_column_stats_std_matches_numpy(dtype):
    """Sum of squares is taken in float64: an int32 square of values near
    1e6 wraps (it once gave every int32 column a std of 0.0)."""
    rng = np.random.default_rng(3)
    chunks = [rng.integers(0, 1_000_001, 5_000) for _ in range(3)]
    stats = []
    for c in chunks:
        st = ColumnStats("v")
        st.add_column(pa.array(c, dtype))
        stats.append(st)
    merged = stats[0].merge(stats[1]).merge(stats[2])
    ref = np.concatenate(chunks).astype(np.float64)
    assert merged.std() == pytest.approx(ref.std(), rel=1e-9)
    assert merged.mean() == pytest.approx(ref.mean(), rel=1e-12)


def test_numhist_drift(ray_session):
    import ray.data as rd

    from events_validator_ray.stages.sketches import NumHist, drift_report

    ds = rd.read_parquet("/root/testdata/sf0.001/events.parquet")
    from events_validator_ray.stages.sketches import sketch_dataset

    sk = sketch_dataset(ds, {"value": ("numhist:0:500:10",)})
    key = next(k for k in sk if k[1].startswith("numhist"))
    hist = sk[key].as_dict()
    assert sum(hist.values()) == ds.count()
    # self-drift is ~zero; shifted reference drifts
    ref_same = {k: v * 3 for k, v in hist.items()}
    df = drift_report({("value", "cathist"): None, **{key: sk[key]}}, {"value": ref_same})
    row = df[df.column == "value"].iloc[0]
    assert row.score == pytest.approx(0.0, abs=1e-6)
    shifted = {"bin_9": 1000}
    df2 = drift_report({key: sk[key]}, {"value": shifted})
    assert df2.iloc[0].score > 0.5


def test_validate_empty_batch():
    import pyarrow as pa

    from events_validator_ray.spec import transcript_spec
    from events_validator_ray.stages.validate import ValidateBatch

    empty = pa.table(
        {
            "conv_id": pa.array([], pa.string()),
            "turn_idx": pa.array([], pa.int32()),
            "role": pa.array([], pa.string()),
            "text": pa.array([], pa.string()),
            "tool": pa.array([], pa.string()),
            "ts": pa.array([], pa.timestamp("us")),
        }
    )
    out = ValidateBatch(transcript_spec())(empty)
    assert out.num_rows == 0


def test_spec_file_fixtures():
    from events_validator_ray.spec import load_spec_file

    spec = load_spec_file("specs/transcript.json")
    assert spec.table.unique == ["conv_id", "turn_idx"]
    spec2 = load_spec_file("specs/events.json")
    assert spec2.fields["event_type"].enum is not None


def test_daily_error_rate_approx_matches_exact_sf01(ray_session):
    """Round-3 item 4: the HLL-sketched daily_error_rate (HLL partials per
    block and day, merged through a shuffle of the partials only) tracks
    the exact two-level distinct groupby within the HLL error envelope on
    the sf0.1 corpus."""
    from events_validator_ray.pipelines.queries import _read_transcripts
    from events_validator_ray.pipelines.report import daily_error_rate
    from events_validator_ray.spec import transcript_spec
    from events_validator_ray.stages.validate import ValidateBatch

    ds = _read_transcripts("/root/testdata/sf0.1")
    log = ds.map_batches(
        ValidateBatch(transcript_spec(), log_valid=True, date_from="ts"),
        batch_format="pyarrow",
        batch_size=None,
        zero_copy_batch=True,
    )
    exact = daily_error_rate(log).set_index("date_utc")
    approx = daily_error_rate(log, approx=True).set_index("date_utc")
    assert list(exact.index) == list(approx.index)
    # HLL p=14: sigma ~ 1.04/sqrt(2^14) = 0.81%; assert a 3-sigma-ish bound
    # on days with enough mass for the relative bound to be meaningful
    big = exact["n_events"] >= 1000
    rel = (
        (approx.loc[big, "n_events"] - exact.loc[big, "n_events"]).abs()
        / exact.loc[big, "n_events"]
    )
    assert float(rel.max()) < 0.03
    err_big = exact["n_error_events"] >= 500
    rel_e = (
        (approx.loc[err_big, "n_error_events"] - exact.loc[err_big, "n_error_events"]).abs()
        / exact.loc[err_big, "n_error_events"]
    )
    assert float(rel_e.max()) < 0.03
    # rate column stays consistent with its own numerator/denominator
    recomputed = (100.0 * approx["n_error_events"] / approx["n_events"]).round(6)
    assert (approx["error_rate"] == recomputed).all()


def _random_strings(seed: int) -> pa.ChunkedArray:
    """Multi-chunk strings with NULLs, '' and non-ASCII values, repeated."""
    rng = np.random.default_rng(seed)
    pool = np.array(["", "a", "é", "日本語", "x y", " ", "🙂", None] + [f"c{i}" for i in range(500)], dtype=object)
    vals = pool[rng.integers(0, len(pool), 6_000)].tolist()
    cuts = sorted(rng.integers(0, len(vals), 3).tolist())
    return pa.chunked_array([pa.array(vals[a:b], pa.string()) for a, b in zip([0] + cuts, cuts + [len(vals)])])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hll_of_a_string_column_hashes_its_dictionary(seed):
    """The HLL partial of a string column hashes each chunk's distinct
    values and gathers them: the same uint64s and registers as `hash64`
    over every row, and the same profile row."""
    import json

    from events_validator_ray.stages.sketches import SketchPartials, _hash64_strings

    col = _random_strings(seed)
    valid = col.drop_null()
    rows = hash64(valid.to_numpy(zero_copy_only=False))
    assert np.array_equal(_hash64_strings(valid), rows)
    assert np.array_equal(_hash64_strings(pa.chunked_array([], pa.string())), np.empty(0, np.uint64))

    want = HLL()
    want.add_hashes(rows)
    part = SketchPartials({"s": ("stats", "hll")})(pa.table({"s": col}))
    got = {(c, k): pickle.loads(p) for c, k, p in zip(*(part[n].to_pylist() for n in ("col", "kind", "payload")))}
    assert np.array_equal(got[("s", "hll")].registers, want.registers)
    stats = ColumnStats("s")
    stats.add_column(col)
    want_profile = profile_table({("s", "stats"): stats, ("s", "hll"): want})
    got_profile = profile_table(got)
    assert json.dumps(got_profile.to_dict(orient="records")) == json.dumps(want_profile.to_dict(orient="records"))
