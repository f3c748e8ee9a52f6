"""Edge semantics for the second round-4 operator batch: FULL OUTER join
NULL-key pass-through, retention cohort math, ROWS-frame rolling sums, pivot
catch-all routing, and normalization-dedup equivalence classes."""

import numpy as np
import pandas as pd
import pytest


def _ds(df):
    import ray.data as rd

    return rd.from_pandas(df)


def test_full_outer_join_matches_and_padding(ray_session, force_buckets):
    """Matched keys merge; keys on one side only NA-pad the other side's
    columns WITHOUT float-degrading int64 payloads."""
    from events_validator_ray.stages.joins import full_outer_join

    left = pd.DataFrame({"k": [1, 2, 3], "lv": [10, 20, 30]})
    right = pd.DataFrame({"k": [2, 3, 4], "rv": [200, 300, 400]})
    force_buckets(4)
    got = (
        full_outer_join(_ds(left), _ds(right), on="k")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert len(got) == 4
    assert list(got["k"]) == [1, 2, 3, 4]
    # unmatched side is NULL, matched side carries exact ints
    assert got.loc[0, "rv"] is pd.NA or pd.isna(got.loc[0, "rv"])
    assert got.loc[3, "lv"] is pd.NA or pd.isna(got.loc[3, "lv"])
    assert int(got.loc[1, "lv"]) == 20 and int(got.loc[1, "rv"]) == 200
    # big int64 payloads survive the NA padding bit-exact
    big = 2**62 + 7
    l2 = pd.DataFrame({"k": [1], "lv": [big]})
    r2 = pd.DataFrame({"k": [9], "rv": [big + 1]})
    force_buckets(2)
    got2 = full_outer_join(_ds(l2), _ds(r2), on="k").to_pandas()
    assert set(got2["k"]) == {1, 9}
    assert int(got2.loc[got2["k"] == 1, "lv"].iloc[0]) == big
    assert int(got2.loc[got2["k"] == 9, "rv"].iloc[0]) == big + 1


def test_full_outer_join_null_keys_never_match(ray_session, force_buckets):
    """SQL semantics: NULL keys from BOTH sides survive as unmatched rows and
    never equi-match each other (pandas merge alone would match NaN == NaN)."""
    force_buckets(4)
    from events_validator_ray.stages.joins import full_outer_join

    left = pd.DataFrame({"k": [1.0, None, None], "lv": [10, 11, 12]})
    right = pd.DataFrame({"k": [1.0, None], "rv": [100, 111]})
    got = full_outer_join(_ds(left), _ds(right), on="k").to_pandas()
    # 1 matched row + 2 left-null rows + 1 right-null row
    assert len(got) == 4
    nulls = got[got["k"].isna()]
    assert len(nulls) == 3
    # a null-key row is NEVER matched: exactly one payload side set per row
    assert ((nulls["lv"].notna().astype(int) + nulls["rv"].notna().astype(int)) == 1).all()
    matched = got[got["k"].notna()]
    assert len(matched) == 1
    assert int(matched["lv"].iloc[0]) == 10 and int(matched["rv"].iloc[0]) == 100


def test_retention_cohorts_small_reference(ray_session, force_buckets):
    """Hand-checked triangle: cohort day 0 = first active day per user;
    duplicate (user, day) activity counts once."""
    force_buckets(4)
    from events_validator_ray.stages.windows import retention_cohorts

    d = pd.Timestamp("2024-03-01")
    day = pd.Timedelta(days=1)
    rows = [
        # u1: first 3/1, returns 3/2 and 3/4 (twice the same day -> once)
        (1, d), (1, d + day), (1, d + 3 * day), (1, d + 3 * day),
        # u2: first 3/1 only
        (2, d + pd.Timedelta(hours=5)),
        # u3: first 3/2, returns 3/3
        (3, d + day), (3, d + 2 * day),
    ]
    df = pd.DataFrame(rows, columns=["user_id", "ts"])
    got = (
        retention_cohorts(_ds(df))
        .to_pandas()
        .sort_values(["cohort_date", "day_offset"])
        .reset_index(drop=True)
    )
    want = pd.DataFrame(
        {
            "cohort_date": ["2024-03-01"] * 3 + ["2024-03-02"] * 2,
            "day_offset": [0, 1, 3, 0, 1],
            "n_users": [2, 1, 1, 1, 1],
        }
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_rolling_turn_chars_frame_and_ties(ray_session, force_buckets):
    """ROWS BETWEEN 2 PRECEDING AND CURRENT ROW per conversation in the
    stable order; NULL text counts as length 0; duplicated (conv, turn_idx)
    rows order by (text, role) tie-break."""
    force_buckets(2)
    from events_validator_ray.stages.assembly import rolling_turn_chars

    df = pd.DataFrame(
        {
            "conv_id": ["c1"] * 4 + ["c2"] * 2,
            "turn_idx": [0, 1, 1, 2, 0, 1],
            "role": ["user", "assistant", "user", "user", "user", "assistant"],
            # c1 turn 1 is duplicated; 'aa' < 'bbb' decides the order
            "text": ["x", "bbb", "aa", None, "hello", "worlds!"],
        }
    )
    got = (
        rolling_turn_chars(_ds(df), window=3)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx", "n_chars"])
        .reset_index(drop=True)
    )
    c1 = got[got["conv_id"] == "c1"]
    # stable order: x(1), aa(2), bbb(3), null(0) -> rolling sums 1, 3, 6, 5
    assert list(c1.sort_values(["turn_idx", "n_chars"])["roll_chars"]) == [1, 3, 6, 5]
    c2 = got[got["conv_id"] == "c2"].sort_values("turn_idx")
    assert list(c2["roll_chars"]) == [5, 12]


def test_pivot_counts_null_and_unknown_to_other(ray_session):
    from events_validator_ray.stages.reshape import pivot_counts

    df = pd.DataFrame(
        {
            "g": ["a", "a", "a", "b", "b"],
            "cat": ["x", "weird", None, "y", "x"],
        }
    )
    got = (
        pivot_counts(_ds(df), "g", "cat", ["x", "y"])
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    assert list(got.columns) == ["g", "n_x", "n_y", "n_other"]
    assert got.loc[0].tolist() == ["a", 1, 0, 2]  # 'weird' + NULL -> other
    assert got.loc[1].tolist() == ["b", 1, 1, 0]


def test_normalized_dedup_collapses_variants(ray_session):
    """Case + whitespace variants share a keeper; genuinely different texts
    don't; NULL text normalizes to '' (groups with empty/whitespace-only)."""
    from events_validator_ray.stages.dedup import normalized_dedup

    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4, 5, 6, 7],
            "text": [
                "Hello  World",
                "hello world",
                " hello\tworld\n",
                "hello worlds",
                None,
                "   ",
                "helloworld",
            ],
        }
    )
    got = sorted(normalized_dedup(_ds(df)).to_pandas()["doc_id"])
    # {1,2,3} -> 1; {4}; {5,6} ('' after trim) -> 5; {7}
    assert got == [1, 4, 5, 7]


def test_lexical_diversity_counts(ray_session):
    """Case folds, punctuation splits, repeats counted once in n_unique;
    NULL/empty docs are (0, 0)."""
    from events_validator_ray.stages.text import lexical_diversity

    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": ["The the THE cat!", "a-b a b7", None, "!!!"],
        }
    )
    got = (
        lexical_diversity(_ds(df))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(got["n_words"]) == [4, 4, 0, 0]
    assert list(got["n_unique_words"]) == [2, 3, 0, 0]  # {the,cat}; {a,b,b7}


def test_boilerplate_prefixes_groups_and_length_gate(ray_session):
    from events_validator_ray.stages.text import boilerplate_prefixes

    boiler = "Dear valued customer, "  # 22 chars; pad to >= k with suffixes
    df = pd.DataFrame(
        {
            "doc_id": [5, 2, 9, 7, 8],
            "text": [
                boiler + "your bill is ready",
                boiler + "your parcel shipped",
                "short",  # < k: skipped
                "A completely different document body",
                None,
            ],
        }
    )
    got = boilerplate_prefixes(_ds(df), k=24, min_docs=2).to_pandas()
    assert len(got) == 1
    assert int(got["n_docs"].iloc[0]) == 2
    assert int(got["min_doc_id"].iloc[0]) == 2


def test_cluster_purity_majority_and_ties(ray_session):
    """Majority label per centroid cell; equal counts break to the LOWER
    label (ORDER BY n DESC, label)."""
    from events_validator_ray.stages.similarity import cluster_purity

    C = np.array([[0.0, 0.0], [10.0, 10.0]])
    vecs = [
        # cluster 0: labels 3, 3, 1 -> majority 3
        ([0.1, 0.0], 3), ([0.0, 0.2], 3), ([0.2, 0.1], 1),
        # cluster 1: labels 5 and 2 tie 1-1 -> lower label 2 wins
        ([10.1, 9.9], 5), ([9.8, 10.2], 2),
    ]
    df = pd.DataFrame(
        {
            "vec_id": range(len(vecs)),
            "embedding": [np.asarray(v, dtype=np.float32) for v, _ in vecs],
            "label": np.asarray([l for _, l in vecs], dtype=np.int32),
        }
    )
    got = (
        cluster_purity(_ds(df), C)
        .to_pandas()
        .sort_values("cluster_id")
        .reset_index(drop=True)
    )
    assert list(got["cluster_id"]) == [0, 1]
    assert list(got["n_vectors"]) == [3, 2]
    assert list(got["top_label"]) == [3, 2]
    assert list(got["n_top"]) == [2, 1]


@pytest.mark.parametrize("seed", [3, 11])
def test_full_outer_join_fuzz_vs_pandas(ray_session, seed, force_buckets):
    """Random keys incl. NULLs on both sides vs a local reference that
    implements SQL FULL OUTER semantics (non-null keys outer-merge; null-key
    rows pass through unmatched)."""
    force_buckets(7)
    import ray.data as rd

    from events_validator_ray.stages.joins import full_outer_join

    rng = np.random.default_rng(seed)

    def mk(n, null_frac, col):
        k = rng.integers(0, 40, n).astype(float)
        k[rng.random(n) < null_frac] = np.nan
        return pd.DataFrame({"k": k, col: np.arange(n, dtype="int64")})

    left, right = mk(300, 0.1, "lv"), mk(250, 0.15, "rv")
    got = (
        full_outer_join(rd.from_pandas(left).repartition(5),
                        rd.from_pandas(right).repartition(3),
                        on="k")
        .to_pandas()
    )
    l_nn, r_nn = left[left["k"].notna()], right[right["k"].notna()]
    ref_m = l_nn.merge(r_nn, on="k", how="outer")
    # expected row multiset: outer merge of non-null keys + null pass-through
    exp_rows = len(ref_m) + left["k"].isna().sum() + right["k"].isna().sum()
    assert len(got) == exp_rows
    # matched/unmatched payload sums are a full fingerprint of the join
    assert got["lv"].dropna().astype("int64").sum() == ref_m["lv"].dropna().astype("int64").sum() + left.loc[left["k"].isna(), "lv"].sum()
    assert got["rv"].dropna().astype("int64").sum() == ref_m["rv"].dropna().astype("int64").sum() + right.loc[right["k"].isna(), "rv"].sum()
    # per-key match counts agree exactly on the non-null keys
    gk = got[got["k"].notna()].groupby(got["k"].dropna().astype("int64")).size()
    rk = ref_m.groupby(ref_m["k"].astype("int64")).size()
    pd.testing.assert_series_equal(gk.sort_index(), rk.sort_index(), check_names=False)


@pytest.mark.parametrize("seed", [5, 23])
def test_retention_cohorts_fuzz_vs_local(ray_session, seed, force_buckets):
    force_buckets(8)
    import ray.data as rd

    from events_validator_ray.stages.windows import retention_cohorts

    rng = np.random.default_rng(seed)
    n = 800
    df = pd.DataFrame(
        {
            "user_id": rng.integers(0, 60, n),
            "ts": pd.Timestamp("2024-01-01")
            + pd.to_timedelta(rng.integers(0, 40 * 86400, n), unit="s"),
        }
    )
    got = (
        retention_cohorts(rd.from_pandas(df).repartition(6))
        .to_pandas()
        .sort_values(["cohort_date", "day_offset"])
        .reset_index(drop=True)
    )
    # local reference
    r = df.assign(day=(df["ts"].astype("int64") // (86400 * 10**9)).astype("int64"))
    a = r[["user_id", "day"]].drop_duplicates()
    d0 = a.groupby("user_id")["day"].transform("min")
    ref = (
        pd.DataFrame(
            {
                "cohort_date": pd.to_datetime(d0 * 86400, unit="s").dt.strftime("%Y-%m-%d"),
                "day_offset": (a["day"] - d0).astype("int64"),
            }
        )
        .groupby(["cohort_date", "day_offset"])
        .size()
        .rename("n_users")
        .reset_index()
        .sort_values(["cohort_date", "day_offset"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, ref, check_dtype=False)


@pytest.mark.parametrize("seed", [7])
def test_rolling_turn_chars_fuzz_vs_local(ray_session, seed, force_buckets):
    force_buckets(8)
    import ray.data as rd

    from events_validator_ray.stages.assembly import rolling_turn_chars

    rng = np.random.default_rng(seed)
    n = 500
    df = pd.DataFrame(
        {
            "conv_id": [f"c{int(i)}" for i in rng.integers(0, 40, n)],
            "turn_idx": rng.integers(0, 12, n),
            "role": rng.choice(["user", "assistant", None], n),
            "text": [
                None if rng.random() < 0.1 else "t" * int(rng.integers(0, 30))
                for _ in range(n)
            ],
        }
    )
    got = (
        rolling_turn_chars(rd.from_pandas(df).repartition(5), window=3)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx", "n_chars", "roll_chars"])
        .reset_index(drop=True)
    )
    loc = df.assign(
        _t=df["text"].fillna(""), _r=df["role"].fillna("")
    ).sort_values(["conv_id", "turn_idx", "_t", "_r"], kind="stable")
    nn = loc["_t"].str.len().astype("int64")
    roll = (
        nn.groupby(loc["conv_id"].to_numpy(), sort=False)
        .rolling(3, min_periods=1)
        .sum()
        .reset_index(drop=True)
        .astype("int64")
    )
    ref = (
        pd.DataFrame(
            {
                "conv_id": loc["conv_id"].to_numpy(),
                "turn_idx": loc["turn_idx"].to_numpy(),
                "n_chars": nn.to_numpy(),
                "roll_chars": roll.to_numpy(),
            }
        )
        .sort_values(["conv_id", "turn_idx", "n_chars", "roll_chars"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, ref, check_dtype=False)


def test_containment_pairs_subset_detection(ray_session):
    """A short doc fully contained in a longer one passes containment but can
    fail Jaccard; broadcast and bucketed-join paths agree."""
    from events_validator_ray.stages.dedup import jaccard_allpairs_join

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                base + " lambda mu nu xi omicron pi rho sigma tau upsilon",
                base,  # subset of doc 1 (all its 3-grams occur there)
                "totally different words here entirely unrelated content",
            ],
        }
    )
    got = (
        jaccard_allpairs_join(_ds(df), threshold_millis=800, mode="containment")
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    assert list(got.columns) == ["a", "b", "inter_sh", "n_a", "n_b"]
    assert len(got) == 1 and got.loc[0, "a"] == 1 and got.loc[0, "b"] == 2
    # containment of the smaller side is 100%
    assert got.loc[0, "inter_sh"] == min(got.loc[0, "n_a"], got.loc[0, "n_b"])
    # Jaccard at the same threshold rejects the pair (sizes differ 2x+)
    jac = jaccard_allpairs_join(_ds(df), threshold_millis=800).to_pandas()
    assert len(jac) == 0
    # join-ladder path (broadcast gate forced off) produces identical rows
    got2 = (
        jaccard_allpairs_join(
            _ds(df), threshold_millis=800, mode="containment", broadcast_max_docs=0
        )
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, got2, check_dtype=False)


@pytest.mark.parametrize("seed", [13])
def test_bucketed_reducers_vs_pandas(ray_session, seed):
    """The generic group-cardinality reducers (bucketed_reduce_per_key /
    bucketed_count_per_key / bucketed_distinct_values) are exact vs plain
    pandas groupby on random multi-block data."""
    import ray.data as rd

    from events_validator_ray.stages.assembly import (
        bucketed_count_per_key,
        bucketed_distinct_values,
        bucketed_reduce_per_key,
    )

    rng = np.random.default_rng(seed)
    n = 5000
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 700, n),  # hundreds of groups, many blocks
            "v": rng.integers(-1000, 1000, n),
        }
    )
    ds = rd.from_pandas(df).repartition(9)
    got = (
        bucketed_reduce_per_key(
            ds, "k", [("s", "v", "sum"), ("mn", "v", "min"), ("mx", "v", "max"), ("n", None, "size")]
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    ref = (
        df.groupby("k")
        .agg(s=("v", "sum"), mn=("v", "min"), mx=("v", "max"), n=("v", "size"))
        .reset_index()
    )
    pd.testing.assert_frame_equal(got, ref, check_dtype=False)
    cnt = bucketed_count_per_key(ds, "k", "n").to_pandas().sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(cnt, ref[["k", "n"]], check_dtype=False)
    dv = sorted(bucketed_distinct_values(ds, "k").to_pandas()["k"])
    assert dv == sorted(df["k"].unique())


def test_pivot_counts_null_row_key_kept(ray_session):
    """A NULL row key is its own pivot row (SQL GROUP BY semantics): the
    bucketed-reduce finish must route all null-key partials to one group
    via the dropna=False path, not silently drop them."""
    from events_validator_ray.stages.reshape import pivot_counts

    df = pd.DataFrame(
        {
            "g": ["a", None, None, "a"],
            "cat": ["x", "x", "y", "y"],
        }
    )
    got = pivot_counts(_ds(df), "g", "cat", ["x", "y"]).to_pandas()
    nullrow = got[got["g"].isna()]
    assert len(nullrow) == 1
    assert nullrow.iloc[0][["n_x", "n_y", "n_other"]].tolist() == [1, 1, 0]
    arow = got[got["g"] == "a"]
    assert arow.iloc[0][["n_x", "n_y", "n_other"]].tolist() == [1, 1, 0]
