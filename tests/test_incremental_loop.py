"""Incremental-revalidation loop hardening (round-5 review findings):

1. the snapshot diff must detect ts / tool / order-preserving turn_idx
   changes (full-row fingerprint, not the role|text export digest);
2. the quarantine split must survive conv_ids containing ':' (event_id is
   '{conv}:{turn}' — the conv key is the rsplit prefix, never split-first);
3. --only-convs must conservatively KEEP null-conv_id rows (the diff cannot
   address them, so they are always revalidated, never silently skipped).
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _base_corpus() -> pd.DataFrame:
    ts0 = pd.Timestamp("2026-01-01 00:00:00")
    rows = []
    for conv in ("conv_00000001", "conv_00000002"):
        for i, role in enumerate(["user", "assistant", "user"]):
            rows.append(
                {
                    "conv_id": conv,
                    "turn_idx": i,
                    "role": role,
                    "text": f"{conv} says {i}",
                    "tool": None,
                    "ts": ts0 + pd.Timedelta(minutes=i),
                }
            )
    df = pd.DataFrame(rows)
    df["turn_idx"] = df["turn_idx"].astype("int32")
    return df


def _statuses(force_buckets, left_df, right_df):
    import ray.data as rd

    from events_validator_ray.stages.assembly import changed_conversations

    force_buckets(4)
    out = changed_conversations(rd.from_pandas(left_df), rd.from_pandas(right_df)).take_all()
    return {r["conv_id"]: r["status"] for r in out}


def test_snapshot_diff_detects_ts_change(ray_session, force_buckets):
    base = _base_corpus()
    right = base.copy()
    m = (right["conv_id"] == "conv_00000001") & (right["turn_idx"] == 1)
    right.loc[m, "ts"] = right.loc[m, "ts"] + pd.Timedelta(hours=2)
    st = _statuses(force_buckets, base, right)
    assert st == {"conv_00000001": "changed", "conv_00000002": "same"}


def test_snapshot_diff_detects_tool_change(ray_session, force_buckets):
    base = _base_corpus()
    right = base.copy()
    m = (right["conv_id"] == "conv_00000001") & (right["turn_idx"] == 1)
    right.loc[m, "tool"] = "sneaky_tool"
    st = _statuses(force_buckets, base, right)
    assert st == {"conv_00000001": "changed", "conv_00000002": "same"}


def test_snapshot_diff_detects_order_preserving_gap(ray_session, force_buckets):
    # 0,1,2 -> 0,1,1000002 keeps relative order and every role|text byte:
    # the export digest is identical, but the contiguity check's verdict
    # flips — the diff must say 'changed'
    base = _base_corpus()
    right = base.copy()
    m = (right["conv_id"] == "conv_00000001") & (right["turn_idx"] == 2)
    right.loc[m, "turn_idx"] = np.int32(1000002)
    st = _statuses(force_buckets, base, right)
    assert st == {"conv_00000001": "changed", "conv_00000002": "same"}


def test_clean_conversations_conv_id_with_colon(ray_session, tmp_path):
    """A violating conversation whose id contains ':' must be quarantined:
    the conv key is event_id's rsplit-prefix ('team:42:3' -> 'team:42'),
    not the first-colon split ('team')."""
    import ray.data as rd

    from events_validator_ray.pipelines.queries import clean_conversations
    from events_validator_ray.spec import transcript_spec

    base = _base_corpus()  # two fully-clean conversations
    bad = pd.DataFrame(
        {
            "conv_id": ["team:42", "team:42"],
            "turn_idx": np.array([0, 1], dtype="int32"),
            "role": ["user", "assistant"],
            "text": ["hi", "there"],
            "tool": [None, None],
            "ts": pd.to_datetime(
                ["2026-01-01 00:00:00", "2026-01-01 00:01:00"]
            ),
        }
    )
    df = pd.concat([base, bad], ignore_index=True)
    out = clean_conversations(rd.from_pandas(df), transcript_spec()).take_all()
    clean = {r["conv_id"] for r in out}
    # 'team:42' breaks the conv_id regex -> it is a violating conversation
    assert "team:42" not in clean
    assert clean == {"conv_00000001", "conv_00000002"}


def _write_corpus(df: pd.DataFrame, d) -> str:
    d.mkdir(parents=True, exist_ok=True)
    t = pa.Table.from_pandas(df, preserve_index=False)
    i = t.column_names.index("ts")
    t = t.set_column(i, "ts", t["ts"].cast(pa.timestamp("us")))
    pq.write_table(t, str(d / "part-0.parquet"))
    return str(d)


def _conv(conv, turns):
    ts0 = pd.Timestamp("2026-01-01 00:00:00")
    return [
        {
            "conv_id": conv,
            "turn_idx": np.int32(i),
            "role": role,
            "text": text,
            "tool": tool,
            "ts": ts0 + pd.Timedelta(minutes=i),
        }
        for i, (role, text, tool) in enumerate(turns)
    ]



def _canon(rows):
    """Sort violation-row tuples containing None (null event_id)."""
    return sorted(rows, key=lambda t: tuple("" if x is None else str(x) for x in t))

def _row_set(out_dir):
    from events_validator_ray.pipelines.validate_pipeline import read_violations

    rows = read_violations(out_dir).take_all()
    return _canon(
        (r["event_id"], r["field"], r["error_type"], r["expected"], r["actual"], r["status"])
        for r in rows
    )


def test_merge_violations_gold_property(ray_session, tmp_path, force_buckets):
    """merged view after an incremental run == a full revalidation of the
    new snapshot, row for row (violations AND valid-log rows)."""
    force_buckets(4)
    import ray.data as rd

    from events_validator_ray.pipelines.validate_pipeline import (
        merge_violations,
        run_validation,
    )
    from events_validator_ray.spec import transcript_spec
    from events_validator_ray.stages.assembly import changed_conversations

    a_old = _conv("conv_00000001", [("user", "hi", None), ("assistant", "yo", None)])
    a_new = _conv("conv_00000001", [("user", "hi", None), ("alien", "yo", None)])
    b = _conv("conv_00000002", [("user", "x", None), ("tool", "y", None)])  # ref break, same both sides
    c = _conv("conv_00000003", [("user", "c0", None), ("assistant", "c1", None)])
    d = _conv("conv_00000004", [("user", "d0", None), ("tool", "d1", "9Bad")])  # regex break

    old_df = pd.DataFrame(a_old + b + c)
    new_df = pd.DataFrame(a_new + b + d)
    old_dir = _write_corpus(old_df, tmp_path / "old")
    new_dir = _write_corpus(new_df, tmp_path / "new")
    spec = transcript_spec()

    run_validation(old_dir, str(tmp_path / "old_out"), spec)
    run_validation(new_dir, str(tmp_path / "full_out"), spec)  # ground truth

    diff = changed_conversations(
        rd.read_parquet(old_dir), rd.read_parquet(new_dir)
    ).take_all()
    st = {r["conv_id"]: r["status"] for r in diff}
    assert st == {
        "conv_00000001": "changed",
        "conv_00000002": "same",
        "conv_00000003": "removed",
        "conv_00000004": "added",
    }
    only = {c for c, s in st.items() if s in ("added", "changed")}
    stale = {c for c, s in st.items() if s != "same"}
    run_validation(
        new_dir, str(tmp_path / "inc_out"), spec, only_convs=only
    )
    merged_dir = str(tmp_path / "inc_out" / "violations_merged")
    n = merge_violations(
        str(tmp_path / "old_out"), stale, str(tmp_path / "inc_out"), merged_dir
    )
    import ray.data as rd2

    merged = _canon(
        (r["event_id"], r["field"], r["error_type"], r["expected"], r["actual"], r["status"])
        for r in rd2.read_parquet(merged_dir).take_all()
    )
    full = _row_set(str(tmp_path / "full_out"))
    assert merged == full
    assert n == len(full)


def _special_row(conv, turn, role, text):
    """One row with a nullable conv_id / turn_idx (Int32 so parquet keeps
    int32-with-null, the shape a real corpus produces)."""
    return pd.DataFrame(
        {
            "conv_id": pd.array([conv], dtype=object),
            "turn_idx": pd.array([turn], dtype="Int32"),
            "role": [role],
            "text": [text],
            "tool": [None],
            "ts": pd.to_datetime(["2026-01-01 00:00:00"]),
        }
    )


def test_snapshot_diff_detects_null_conv_change(ray_session, force_buckets):
    """Rows with NULL conv_id roll up under NULL_CONV_MARKER: editing one of
    them must surface as a 'changed' marker row, not vanish from the diff."""
    from events_validator_ray.stages.assembly import NULL_CONV_MARKER

    base = pd.concat(
        [_base_corpus(), _special_row(None, 0, "user", "orphan-old")],
        ignore_index=True,
    )
    right = base.copy()
    right.loc[right["conv_id"].isna(), "text"] = "orphan-new"
    st = _statuses(force_buckets, base, right)
    assert st[NULL_CONV_MARKER] == "changed"
    assert st["conv_00000001"] == "same" and st["conv_00000002"] == "same"


def test_incremental_loop_gold_property_with_null_rows(ray_session, tmp_path, force_buckets):
    """The F2/F3/F4 scenarios end-to-end: a NULL-conv row whose text changes
    (only the marker can see it), and an untouched conversation containing a
    NULL-turn_idx row (event_id 'conv:null' keeps the conv prefix, so its
    base rows are carried, not dropped). merged == full revalidation."""
    force_buckets(4)
    import ray.data as rd

    from events_validator_ray.pipelines.validate_pipeline import (
        merge_violations,
        run_validation,
    )
    from events_validator_ray.spec import transcript_spec
    from events_validator_ray.stages.assembly import (
        NULL_CONV_MARKER,
        changed_conversations,
    )

    a_old = _conv("conv_00000001", [("user", "hi", None), ("assistant", "yo", None)])
    a_new = _conv("conv_00000001", [("user", "hi", None), ("alien", "yo", None)])
    c = _conv("conv_00000005", [("user", "c0", None), ("assistant", "c1", None)])
    null_turn = _special_row("conv_00000005", None, "assistant", "lost-turn")
    old_df = pd.concat(
        [pd.DataFrame(a_old + c), null_turn, _special_row(None, 0, "user", "n-old")],
        ignore_index=True,
    )
    new_df = pd.concat(
        [pd.DataFrame(a_new + c), null_turn, _special_row(None, 0, "user", "n-new")],
        ignore_index=True,
    )
    old_dir = _write_corpus(old_df, tmp_path / "old")
    new_dir = _write_corpus(new_df, tmp_path / "new")
    spec = transcript_spec()

    run_validation(old_dir, str(tmp_path / "old_out"), spec)
    run_validation(new_dir, str(tmp_path / "full_out"), spec)  # ground truth

    st = {
        r["conv_id"]: r["status"]
        for r in changed_conversations(
            rd.read_parquet(old_dir), rd.read_parquet(new_dir)
        ).take_all()
    }
    assert st == {
        "conv_00000001": "changed",
        "conv_00000005": "same",
        NULL_CONV_MARKER: "changed",
    }
    only = {k for k, s in st.items() if s in ("added", "changed")}
    stale = {k for k, s in st.items() if s != "same"}
    run_validation(new_dir, str(tmp_path / "inc_out"), spec, only_convs=only)
    merged_dir = str(tmp_path / "inc_out" / "violations_merged")
    merge_violations(
        str(tmp_path / "old_out"), stale, str(tmp_path / "inc_out"), merged_dir
    )
    merged = _canon(
        (r["event_id"], r["field"], r["error_type"], r["expected"], r["actual"], r["status"])
        for r in rd.read_parquet(merged_dir).take_all()
    )
    assert merged == _row_set(str(tmp_path / "full_out"))


def test_merge_retires_removed_null_rows(ray_session, tmp_path, force_buckets):
    """Marker status 'removed' (all NULL-conv rows gone, nothing else
    changed): the short-circuit merge with drop_null_rows=True retires the
    base log's null rows — merged == full rerun of the new snapshot."""
    force_buckets(4)
    import ray.data as rd

    from events_validator_ray.pipelines.validate_pipeline import (
        merge_violations,
        run_validation,
    )
    from events_validator_ray.spec import transcript_spec
    from events_validator_ray.stages.assembly import (
        NULL_CONV_MARKER,
        changed_conversations,
    )

    base = _base_corpus()
    old_df = pd.concat(
        [base, _special_row(None, 0, "user", "orphan")], ignore_index=True
    )
    old_dir = _write_corpus(old_df, tmp_path / "old")
    new_dir = _write_corpus(base, tmp_path / "new")
    spec = transcript_spec()

    run_validation(old_dir, str(tmp_path / "old_out"), spec)
    run_validation(new_dir, str(tmp_path / "full_out"), spec)

    st = {
        r["conv_id"]: r["status"]
        for r in changed_conversations(
            rd.read_parquet(old_dir), rd.read_parquet(new_dir)
        ).take_all()
    }
    assert st[NULL_CONV_MARKER] == "removed"
    assert {k for k, s in st.items() if s in ("added", "changed")} == set()
    stale = {k for k, s in st.items() if s != "same"}
    merged_dir = str(tmp_path / "merged")
    merge_violations(
        str(tmp_path / "old_out"),
        stale,
        None,
        merged_dir,
        drop_null_rows=NULL_CONV_MARKER in stale,
    )
    merged = _canon(
        (r["event_id"], r["field"], r["error_type"], r["expected"], r["actual"], r["status"])
        for r in rd.read_parquet(merged_dir).take_all()
    )
    assert merged == _row_set(str(tmp_path / "full_out"))


def test_loop_iterates_via_merged_log(ray_session, tmp_path, force_buckets):
    """Round 2's --merge-base points at round 1's INCREMENTAL run: the merge
    must read its violations_merged (the complete log), not its partial
    violations/ — and still equal a full revalidation."""
    force_buckets(4)
    import ray.data as rd

    from events_validator_ray.pipelines.validate_pipeline import (
        merge_violations,
        run_validation,
    )
    from events_validator_ray.spec import transcript_spec
    from events_validator_ray.stages.assembly import changed_conversations

    def snap(a_turns, b_turns):
        return pd.DataFrame(
            _conv("conv_00000001", a_turns) + _conv("conv_00000002", b_turns)
        )

    clean = [("user", "hi", None), ("assistant", "yo", None)]
    bad = [("user", "x", None), ("alien", "y", None)]
    s0 = _write_corpus(snap(clean, clean), tmp_path / "s0")
    s1 = _write_corpus(snap(bad, clean), tmp_path / "s1")  # round 1: A changes
    s2 = _write_corpus(snap(bad, bad), tmp_path / "s2")  # round 2: B changes

    spec = transcript_spec()
    run_validation(s0, str(tmp_path / "out0"), spec)

    def one_round(old_snap, new_snap, base_out, out):
        st = {
            r["conv_id"]: r["status"]
            for r in changed_conversations(
                rd.read_parquet(old_snap), rd.read_parquet(new_snap)
            ).take_all()
        }
        only = {k for k, s in st.items() if s in ("added", "changed")}
        stale = {k for k, s in st.items() if s != "same"}
        run_validation(new_snap, out, spec, only_convs=only)
        merge_violations(base_out, stale, out, out + "/violations_merged")

    one_round(s0, s1, str(tmp_path / "out0"), str(tmp_path / "out1"))
    # round 2's base is round 1's INCREMENTAL out dir
    one_round(s1, s2, str(tmp_path / "out1"), str(tmp_path / "out2"))

    run_validation(s2, str(tmp_path / "full2"), spec)
    merged = _canon(
        (r["event_id"], r["field"], r["error_type"], r["expected"], r["actual"], r["status"])
        for r in rd.read_parquet(str(tmp_path / "out2" / "violations_merged")).take_all()
    )
    assert merged == _row_set(str(tmp_path / "full2"))


def test_merge_violations_removed_only(ray_session, tmp_path):
    """Steady state with deletions: no added/changed conversations, one
    removed — the merge (new_dir=None, the CLI short-circuit path) retires
    the removed conversation's rows and keeps everything else verbatim."""
    from events_validator_ray.pipelines.validate_pipeline import (
        merge_violations,
        run_validation,
    )
    from events_validator_ray.spec import transcript_spec

    a = _conv("conv_00000001", [("user", "hi", None), ("assistant", "yo", None)])
    b = _conv("conv_00000002", [("user", "x", None), ("tool", "y", None)])  # violating
    old_dir = _write_corpus(pd.DataFrame(a + b), tmp_path / "old")
    new_dir = _write_corpus(pd.DataFrame(a), tmp_path / "new")  # b removed
    spec = transcript_spec()

    run_validation(old_dir, str(tmp_path / "old_out"), spec)
    run_validation(new_dir, str(tmp_path / "full_out"), spec)  # ground truth

    merged_dir = str(tmp_path / "merged")
    n = merge_violations(
        str(tmp_path / "old_out"), {"conv_00000002"}, None, merged_dir
    )
    import ray.data as rd

    merged = _canon(
        (r["event_id"], r["field"], r["error_type"], r["expected"], r["actual"], r["status"])
        for r in rd.read_parquet(merged_dir).take_all()
    )
    assert merged == _row_set(str(tmp_path / "full_out"))
    assert n == len(merged)


def test_run_profile_matches_full_pipeline_and_resumes(ray_session, tmp_path):
    """Profile-only pass: identical profile.json to the full pipeline's (same
    sketches, no validation), full resume on rerun, and partition-granular
    recompute when one input file changes."""
    import json
    import os
    import time

    from events_validator_ray.pipelines.validate_pipeline import (
        run_profile,
        run_validation,
    )
    from events_validator_ray.sources.transcripts import ensure_transcripts
    from events_validator_ray.spec import transcript_spec

    tdir = ensure_transcripts(0.001)
    full = run_validation(tdir, str(tmp_path / "full"), transcript_spec(),
                          files_per_partition=1)
    s1 = run_profile(tdir, str(tmp_path / "prof"), files_per_partition=1)
    assert s1["executed"] == len(s1["partitions"]) + 1  # parts + merge
    def canon_profile(payload):
        # t-digest merge is order-dependent (documented: the only
        # approx-sketch without bit-identical merges), and the two passes
        # see different block layouts — compare everything else exactly and
        # the quantiles to 1%
        prof = []
        quants = []
        for row in payload["profile"]:
            row = dict(row)
            quants.append([row.pop(k) for k in ("p50", "p95", "p99")])
            prof.append(row)
        return {"histograms": payload["histograms"], "profile": prof}, quants

    with open(full["profile_path"]) as f:
        want, wq = canon_profile(json.load(f))
    with open(s1["profile_path"]) as f:
        got, gq = canon_profile(json.load(f))
    assert got == want
    for a, b in zip(wq, gq):
        for x, y in zip(a, b):
            if x is None or (isinstance(x, float) and np.isnan(x)):
                assert y is None or np.isnan(y)
            else:
                # merge-order effects on this skewed tiny corpus reach a few
                # percent; the exact-quantile twin covers precision elsewhere
                assert abs(x - y) <= 0.1 * max(1.0, abs(x))

    s2 = run_profile(tdir, str(tmp_path / "prof"), files_per_partition=1)
    assert s2["executed"] == 0 and s2["skipped"] == s1["executed"]

    # change ONE input file (copy corpus to a writable dir, bump mtime)
    import shutil

    work = tmp_path / "work"
    shutil.copytree(tdir, work)
    s3 = run_profile(str(work), str(tmp_path / "prof2"), files_per_partition=1)
    victim = sorted(f for f in os.listdir(work) if f.endswith(".parquet"))[0]
    os.utime(work / victim, (time.time() + 5, time.time() + 5))
    s4 = run_profile(str(work), str(tmp_path / "prof2"), files_per_partition=1)
    # one partition recomputed (+ the merge re-ran: full-corpus fp changed)
    assert s4["executed"] == 2
    assert s4["skipped"] == s3["executed"] - 2
    with open(s4["profile_path"]) as f:
        got4, _ = canon_profile(json.load(f))
    assert got4 == want  # content unchanged -> same profile


def test_snapshot_diff_matches_naive_differ_randomized(ray_session, force_buckets):
    """Property check: changed_conversations == a brute-force row-multiset
    differ, across randomized corpora with every edit class (text/role/tool/
    ts/turn edits, conv add/remove, NULL conv_id rows)."""
    force_buckets(4)
    import ray.data as rd

    from events_validator_ray.stages.assembly import (
        NULL_CONV_MARKER,
        changed_conversations,
    )

    def random_corpus(rng, convs):
        rows = []
        for c in convs:
            n = rng.integers(1, 6)
            for i in range(n):
                rows.append(
                    {
                        "conv_id": c,
                        "turn_idx": np.int32(rng.integers(0, 8)),
                        "role": rng.choice(["user", "assistant", "tool", None]),
                        "text": rng.choice([f"t{rng.integers(0, 5)}", None]),
                        "tool": rng.choice(["search", None]),
                        "ts": pd.Timestamp("2026-01-01")
                        + pd.Timedelta(minutes=int(rng.integers(0, 60))),
                    }
                )
        # a few NULL-conv rows
        for _ in range(int(rng.integers(0, 3))):
            rows.append(
                {
                    "conv_id": None,
                    "turn_idx": np.int32(rng.integers(0, 8)),
                    "role": "user",
                    "text": f"n{rng.integers(0, 3)}",
                    "tool": None,
                    "ts": pd.Timestamp("2026-01-01"),
                }
            )
        return pd.DataFrame(rows)

    def naive_diff(left, right):
        def rollup(df):
            out = {}
            key = df["conv_id"].fillna(NULL_CONV_MARKER)
            for conv, g in df.groupby(key):
                rows = sorted(
                    (
                        (
                            int(r.turn_idx),
                            r.role if isinstance(r.role, str) else None,
                            r.text if isinstance(r.text, str) else None,
                            r.tool if isinstance(r.tool, str) else None,
                            r.ts.value,
                        )
                        for r in g.itertuples()
                    ),
                    key=lambda t: tuple("" if x is None else str(x) for x in t),
                )
                out[conv] = tuple(rows)
            return out

        l, r = rollup(left), rollup(right)
        st = {}
        for c in set(l) | set(r):
            if c not in l:
                st[c] = "added"
            elif c not in r:
                st[c] = "removed"
            else:
                st[c] = "same" if l[c] == r[c] else "changed"
        return st

    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        convs = [f"conv_{i:08d}" for i in range(10)]
        left = random_corpus(rng, convs[:8])
        right = random_corpus(rng, convs[2:])  # 0-1 removed, 8-9 added, rest re-rolled
        got = {
            r["conv_id"]: r["status"]
            for r in changed_conversations(
                rd.from_pandas(left), rd.from_pandas(right)
            ).take_all()
        }
        assert got == naive_diff(left, right), f"seed {seed}"


def test_only_convs_keeps_null_conv_rows(ray_session, tmp_path):
    """run_validation(only_convs=...) must always revalidate rows whose
    conv_id is NULL — the snapshot diff cannot see them."""
    from events_validator_ray.pipelines.validate_pipeline import (
        read_violations,
        run_validation,
    )
    from events_validator_ray.spec import transcript_spec

    df = _base_corpus()
    null_row = pd.DataFrame(
        {
            "conv_id": [None],
            "turn_idx": np.array([0], dtype="int32"),
            "role": ["user"],
            "text": ["orphan"],
            "tool": [None],
            "ts": pd.to_datetime(["2026-01-01 00:00:00"]),
        }
    )
    df = pd.concat([df, null_row], ignore_index=True)
    tdir = tmp_path / "corpus"
    tdir.mkdir()
    pq.write_table(
        pa.Table.from_pandas(df, preserve_index=False).set_column(
            5, "ts", pa.Table.from_pandas(df[["ts"]])["ts"].cast(pa.timestamp("us"))
        ),
        str(tdir / "part-0.parquet"),
    )
    out = tmp_path / "out"
    s = run_validation(
        str(tdir),
        str(out),
        transcript_spec(),
        files_per_partition=1,
        only_convs={"conv_00000001"},
    )
    assert s["executed"] > 0
    viols = read_violations(str(out)).filter(expr="status == 'error'").take_all()
    null_conv_viols = [r for r in viols if r["field"] == "conv_id"]
    assert null_conv_viols, "null-conv_id row was silently dropped by only_convs"
