"""Transcript assembly operators: conversation → training-document rollup and
adjacent-turn SFT pair mining.

Both are per-conversation ordered computations expressed with the repo's
keyed exchange (`stages/exchange.py`, keyed by conv_id): ONE shuffle
moves each conversation to a single task, and a vectorized pandas kernel then
processes thousands of conversations per call. The within-conversation order
is the stable total order (turn_idx, coalesce(text,''), coalesce(role,'')) —
turn_idx alone is not unique (the corpus injects duplicated (conv_id,
turn_idx) rows, sources/transcripts.py:140), and any rows that still tie
under the full key are bit-identical in every field the output depends on, so
the order of ties cannot change the result. This mirrors the reference's
"stable turn ordering" contract (BASELINE.json input_hint) the way
`turn_text_digest` evidences it row-wise.

Scale shape: projection first (conv_id, turn_idx, role, text only — never the
whole row), one keyed exchange, then one kernel call per bucket; output is one
row per conversation (conversation_doc) / one row per adjacent pair
(turn_pairs), both ≤ input size. No driver materialization anywhere.

Partitioning assumption: a whole conversation lands in one task — INHERENT to
these semantics (the assembled document IS the conversation; adjacency needs
both neighbours), unlike the checks plane, which salts hot conversations into
`chunk`-turn slices. A pathological 10^8-turn conversation therefore costs one
10^8-row task here; gate such conversations upstream with
`conversation_stats` / `detect_skew` before assembly.
"""

from __future__ import annotations

import hashlib

import pandas as pd
import pyarrow as pa

from .exchange import exchange

_ORDER_COLS = ["conv_id", "turn_idx", "_text_f", "_role_f"]


def _ordered(df: pd.DataFrame) -> pd.DataFrame:
    """Stable total order within each conversation (see module docstring)."""
    df = df.assign(_text_f=df["text"].fillna(""), _role_f=df["role"].fillna(""))
    return df.sort_values(_ORDER_COLS, kind="stable").reset_index(drop=True)


def _md5_series(s: pd.Series) -> pd.Series:
    return s.map(lambda t: hashlib.md5(t.encode()).hexdigest() if isinstance(t, str) else None)


class _AssembleDocsBucket:
    """One call = one hash bucket of conversations: order, render one
    'role|text' line per turn, concat per conversation, md5 the document."""

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        df = _ordered(df)
        line = df["_role_f"] + "|" + df["_text_f"]
        docs = (
            pd.DataFrame({"conv_id": df["conv_id"], "line": line})
            .groupby("conv_id", sort=False)
            .agg(n_turns=("line", "size"), doc=("line", "\n".join))
            .reset_index()
        )
        docs["doc_md5"] = _md5_series(docs["doc"])
        return docs[["conv_id", "n_turns", "doc_md5"]]


def conversation_docs(ds):
    """Assemble each conversation into one training document (ordered
    'role|text' lines joined by newline; NULLs render as '') and emit
    (conv_id, n_turns, doc_md5). The md5 keeps the compared column a string
    while still pinning every byte of the assembled document.

    SQL twin: string_agg(... ORDER BY turn_idx, coalesce(text,''),
    coalesce(role,'')) GROUP BY conv_id.
    """
    projected = ds.select_columns(["conv_id", "turn_idx", "role", "text"])
    return exchange(projected, "conv_id", _AssembleDocsBucket())


def _count_sum(key_col: str, out_col: str, min_count: int):
    """Per-bucket reduce: sum the partial `_n` counts per key into
    `out_col`, keeping keys with at least `min_count`."""

    def bucketed_count_sum(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {key_col: pd.Series(dtype=object), out_col: pd.Series(dtype="int64")}
            )
        out = g.groupby(key_col, sort=False)["_n"].sum().rename(out_col).reset_index()
        out[out_col] = out[out_col].astype("int64")
        if min_count > 1:
            out = out[out[out_col] >= min_count]
        return out

    return bucketed_count_sum


def bucketed_count_per_key(ds, key_col: str, out_col: str, min_count: int = 1):
    """Additive COUNT(*) GROUP BY key when distinct keys scale with the
    corpus: per-block pandas counts (one partial row per (block, key)) →
    keyed exchange → per-bucket pandas sum. Ray's sort-based
    `groupby(key).aggregate()` degrades with GROUP cardinality (BASELINE.md
    addendum: ~1070s remote wall over 592k groups); this shape is the
    measured cure. A hot key contributes ≤ blocks partial rows, all landing
    in one bucket — skew-safe, exact."""

    def count_partials(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(key_col, sort=False).size().rename("_n").reset_index()
        out["_n"] = out["_n"].astype("int64")
        return out

    return exchange(
        ds.select_columns([key_col]), key_col, _count_sum(key_col, out_col, min_count), count_partials
    )


def bucketed_distinct_values(ds, col: str):
    """DISTINCT values of one column when the distinct count scales with the
    corpus — per-block drop_duplicates combiner, keyed exchange, per-bucket
    drop_duplicates. Same rationale as `bucketed_count_per_key` (a
    `groupby(col).aggregate(Count)` dedup pays the sort-aggregate's
    per-group cost); shuffle volume = per-block distinct values once."""

    def distinct_combiner(df: pd.DataFrame) -> pd.DataFrame:
        return df[[col]].drop_duplicates()

    return exchange(ds.select_columns([col]), col, distinct_combiner, distinct_combiner)


def distinct_count_per_key(pairs_ds, key_col: str, val_col: str, out_col: str, min_count: int = 1):
    """EXACT COUNT(DISTINCT val) GROUP BY key over a (key, val) pair Dataset
    that may contain duplicates — skew-safe: a hot key (one value shared by
    most of the corpus) never lands in a single task.

    Shape: two keyed exchanges. The first is keyed by the (key, val) pair, so
    duplicate pairs co-locate (dedup inside a bucket is globally exact) while
    a hot KEY's values spread across every bucket; it emits per-bucket
    partial per-key counts. The second is keyed by key and sums them. The
    final reduce deliberately does NOT use `groupby(key).aggregate(Sum)`:
    Ray's sort-based aggregate is pathological at high GROUP cardinality —
    measured ~1070s of remote wall over 592k distinct md5-string groups at
    sf0.1 (85s wall-clock) vs ~2s for the bucketed pandas sum. A hot key
    contributes ≤ one partial row per bucket, so the reduce stays skew-safe.
    Shuffle = distinct pairs once + partial rows once."""

    def pair_dedup(df: pd.DataFrame) -> pd.DataFrame:
        return df[[key_col, val_col]].drop_duplicates()

    def partial_distinct_counts(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates([key_col, val_col])
        out = d.groupby(key_col, sort=False).size().rename("_n").reset_index()
        out["_n"] = out["_n"].astype("int64")
        return out

    partials = exchange(pairs_ds, [key_col, val_col], partial_distinct_counts, pair_dedup)
    return exchange(partials, key_col, _count_sum(key_col, out_col, min_count))


def cross_conv_duplicate_texts(ds, min_convs: int = 2):
    """Template / canned-response detection: texts that appear (verbatim) in
    at least `min_convs` DISTINCT conversations → (text_md5, n_convs). A core
    transcript-curation signal (boilerplate answers inflate a training set).

    Scale shape: project to (conv_id, text), md5 the text (the md5 — not the
    raw text — is what shuffles), per-batch DISTINCT (text_md5, conv_id)
    combiner, then the skew-safe distinct_count_per_key reduction (a
    boilerplate text shared by most conversations must never collapse into
    one task). SQL twin: GROUP BY md5(text) HAVING COUNT(DISTINCT conv_id)
    >= min_convs."""

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        df = df.loc[df["text"].notna(), ["conv_id", "text"]]
        out = pd.DataFrame(
            {"text_md5": _md5_series(df["text"]), "conv_id": df["conv_id"]}
        )
        return out.drop_duplicates()

    pairs.__name__ = "distinct_pairs_combiner"
    pair_ds = ds.select_columns(["conv_id", "text"]).map_batches(
        pairs, batch_format="pandas"
    )
    return distinct_count_per_key(
        pair_ds, "text_md5", "conv_id", "n_convs", min_count=min_convs
    )


def conversation_stats(ds):
    """Per-conversation feature rollup for curation filters: turn counts by
    role, tool-call count, and wall-clock duration (max ts − min ts, µs;
    NULL when the conversation has no timestamps).

    Conversations scale with the corpus, so the reduce is the bucketed
    pandas shape, not `groupby(conv_id).aggregate(...)` (BASELINE.md
    group-cardinality addendum — the 6-aggregate sort path measured 16.7s
    at sf0.1 vs ~4s bucketed): per-block pandas partials (one row per
    (block, conv)) → keyed exchange → per-bucket merge (sum the counts,
    min/max the timestamps). µs epochs (~1.7e15) stay exact through the
    float64 NaN-carrying min/max: they are < 2^53."""
    import pyarrow.compute as pc

    def derive(t: pa.Table) -> pa.Table:
        role = t["role"]
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "is_user": pc.cast(
                    pc.fill_null(pc.equal(role, "user"), False), pa.int64()
                ),
                "is_assistant": pc.cast(
                    pc.fill_null(pc.equal(role, "assistant"), False), pa.int64()
                ),
                "has_tool": pc.cast(pc.is_valid(t["tool"]), pa.int64()),
                "ts_us": pc.cast(t["ts"], pa.int64()),
            }
        )

    def conv_stats_partials(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby("conv_id", sort=False)
            .agg(
                n_turns=("is_user", "size"),
                n_user=("is_user", "sum"),
                n_assistant=("is_assistant", "sum"),
                n_tool=("has_tool", "sum"),
                _min_ts=("ts_us", "min"),
                _max_ts=("ts_us", "max"),
            )
            .reset_index()
        )

    def conv_stats_merge(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.groupby("conv_id", sort=False)
            .agg(
                n_turns=("n_turns", "sum"),
                n_user=("n_user", "sum"),
                n_assistant=("n_assistant", "sum"),
                n_tool=("n_tool", "sum"),
                _min_ts=("_min_ts", "min"),
                _max_ts=("_max_ts", "max"),
            )
            .reset_index()
        )
        for c in ("n_turns", "n_user", "n_assistant", "n_tool"):
            out[c] = out[c].astype("int64")
        dur = out["_max_ts"] - out["_min_ts"]
        # emit a canonical Arrow block (int64 nullable duration) — pandas
        # Int64 extension blocks trip downstream numpy dtype checks
        return pa.table(
            {
                "conv_id": pa.array(out["conv_id"]),
                "n_turns": pa.array(out["n_turns"].to_numpy(), type=pa.int64()),
                "n_user": pa.array(out["n_user"].to_numpy(), type=pa.int64()),
                "n_assistant": pa.array(
                    out["n_assistant"].to_numpy(), type=pa.int64()
                ),
                "n_tool": pa.array(out["n_tool"].to_numpy(), type=pa.int64()),
                "duration_us": pa.Array.from_pandas(dur).cast(pa.int64()),
            }
        )

    derived = ds.select_columns(["conv_id", "role", "tool", "ts"]).map_batches(
        derive, batch_format="pyarrow"
    )
    return exchange(derived, "conv_id", conv_stats_merge, conv_stats_partials)


class _RoleTransitionsBucket:
    """One call = one bucket of conversations: count (role → next-role)
    adjacencies under the stable order; partial counts per bucket."""

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        df = _ordered(df)
        same_conv = df["conv_id"].eq(df["conv_id"].shift(-1))
        cur = df["role"]
        nxt = df["role"].shift(-1)
        keep = same_conv & cur.notna() & nxt.notna()
        out = (
            pd.DataFrame({"from_role": cur[keep], "to_role": nxt[keep]})
            .groupby(["from_role", "to_role"], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )
        out["n"] = out["n"].astype("int64")
        return out


def role_transitions(ds):
    """Role-transition profile: corpus-wide counts of (from_role → to_role)
    over consecutive turns within each conversation (stable order; NULL roles
    skipped) — the protocol-drift signal for agent transcripts (a spike in
    assistant→assistant adjacency means broken alternation upstream).

    Scale shape: one conversation-keyed exchange produces per-bucket
    PARTIAL counts (≤ roles² rows per bucket); the driver folds the
    roles²×buckets table (``fold.sum_by_key``, Arrow groups on both
    columns)."""
    from .fold import dataset, sum_by_key

    projected = ds.select_columns(["conv_id", "turn_idx", "role", "text"])
    partials = exchange(projected, "conv_id", _RoleTransitionsBucket())
    schema = pa.schema([("from_role", pa.string()), ("to_role", pa.string()), ("n", pa.int64())])
    return dataset(sum_by_key(partials, schema, ["from_role", "to_role"]))


class _ConvSegmentsBucket:
    """One call = one bucket of conversations: count ts-gap segments per
    conversation (gap > gap_s between consecutive non-null-ts turns under the
    stable order starts a new segment; null-ts turns don't break or extend
    segments; a conversation with no timestamps has 0 segments)."""

    def __init__(self, gap_s: int):
        self.gap_s = gap_s

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        df = _ordered(df)
        ts = pd.to_datetime(df["ts"])
        us = ts.astype("int64")
        if str(ts.dtype).startswith("datetime64[ns"):
            us = us // 1000
        valid = ts.notna()
        sub = pd.DataFrame(
            {
                "conv_id": df["conv_id"][valid],
                "turn_idx": df["turn_idx"][valid],
                "_text_f": df["_text_f"][valid],
                "_role_f": df["_role_f"][valid],
                "us": us[valid],
            }
        )
        # `us` as the FINAL sort key: rows tied on (turn, text, role) may
        # still differ in ts, and segmentation reads consecutive diffs — the
        # extra key makes the order total on both engines
        sub = sub.sort_values(
            ["conv_id", "turn_idx", "_text_f", "_role_f", "us"], kind="stable"
        ).reset_index(drop=True)
        new_conv = sub["conv_id"].ne(sub["conv_id"].shift(1))
        gap = (sub["us"] - sub["us"].shift(1)) > self.gap_s * 1_000_000
        seg_start = (new_conv | gap).astype("int64")
        segs = (
            pd.DataFrame({"conv_id": sub["conv_id"], "s": seg_start})
            .groupby("conv_id", sort=False)["s"]
            .sum()
            .rename("n_segments")
            .reset_index()
        )
        all_convs = df[["conv_id"]].drop_duplicates()
        out = all_convs.merge(segs, on="conv_id", how="left")
        out["n_segments"] = out["n_segments"].fillna(0).astype("int64")
        return out


def conv_segments(ds, gap_s: int = 1800):
    """Gap-based conversation segmentation: per conversation, the number of
    ts-gap segments (> gap_s between consecutive timestamped turns under the
    stable order starts a new one) — the transcripts-axis sessionizer
    (window_session's per-key analog where the key IS the conversation).
    One conversation-keyed exchange, whole conversations co-located."""
    projected = ds.select_columns(["conv_id", "turn_idx", "role", "text", "ts"])
    return exchange(projected, "conv_id", _ConvSegmentsBucket(gap_s))


class _TurnPairsBucket:
    """One call = one hash bucket of conversations: order, shift-by-1 within
    conversation, keep user→assistant adjacencies with non-null text."""

    def __init__(self, prompt_role: str, response_role: str):
        self.prompt_role = prompt_role
        self.response_role = response_role

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        df = _ordered(df)
        same_conv = df["conv_id"].eq(df["conv_id"].shift(-1))
        nrole = df["role"].shift(-1)
        ntext = df["text"].shift(-1)
        nturn = df["turn_idx"].shift(-1)
        keep = (
            same_conv
            & df["role"].eq(self.prompt_role)
            & nrole.eq(self.response_role)
            & df["text"].notna()
            & ntext.notna()
        )
        out = pd.DataFrame(
            {
                "conv_id": df.loc[keep, "conv_id"],
                "prompt_turn_idx": df.loc[keep, "turn_idx"].astype("int64"),
                "response_turn_idx": nturn[keep].astype("int64"),
                "prompt_md5": _md5_series(df.loc[keep, "text"]),
                "response_md5": _md5_series(ntext[keep]),
            }
        )
        return out.reset_index(drop=True)


def turn_pairs(ds, prompt_role: str = "user", response_role: str = "assistant"):
    """Mine adjacent (prompt_role → response_role) turn pairs per conversation
    under the stable turn ordering — the SFT-pair extraction a training-data
    pipeline runs over raw transcripts. Emits (conv_id, prompt_turn_idx,
    response_turn_idx, prompt_md5, response_md5); pairs with a NULL prompt or
    response text are dropped (nothing to train on).

    SQL twin: lead(role/text/turn_idx) OVER (PARTITION BY conv_id ORDER BY
    turn_idx, coalesce(text,''), coalesce(role,'')).
    """
    projected = ds.select_columns(["conv_id", "turn_idx", "role", "text"])
    return exchange(projected, "conv_id", _TurnPairsBucket(prompt_role, response_role))


def response_variants(ds, min_variants: int = 2):
    """Preference-pair mining precursor (DPO-style): user prompts that
    received >= min_variants DISTINCT assistant responses anywhere in the
    corpus → (prompt_md5, n_variants). The turn after a verbatim-repeated
    prompt diverging is exactly where chosen/rejected pairs come from.

    Scale shape: the turn_pairs adjacency kernel (one bucketed conversation
    shuffle, md5s projected before anything else moves) feeding the
    skew-safe distinct_count_per_key reduction — a prompt repeated across
    most of the corpus never collapses into one task."""
    pairs = turn_pairs(ds).select_columns(
        ["prompt_md5", "response_md5"]
    )
    return distinct_count_per_key(
        pairs, "prompt_md5", "response_md5", "n_variants", min_count=min_variants
    )


class _ReindexBucket:
    """One call = one hash bucket of conversations: event-time canonical
    order (ts NULLS LAST, then original turn_idx / text-digest / role as
    deterministic tie-breaks) and a fresh contiguous 0-based turn index per
    conversation. Rows that tie on the full sort key are bit-identical in
    every output column except the new index, whose assignment among them
    is therefore set-irrelevant."""

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(
            _md5_f=df["text_md5"].fillna(""), _role_f=df["role"].fillna("")
        )
        df = df.sort_values(
            ["conv_id", "ts", "turn_idx", "_md5_f", "_role_f"],
            kind="stable",
            na_position="last",
        ).reset_index(drop=True)
        # dropna=False: a NULL conv_id must still form a partition (DuckDB
        # PARTITION BY treats NULL as one group), not produce NaN cumcounts
        new_idx = df.groupby("conv_id", sort=False, dropna=False).cumcount()
        return pd.DataFrame(
            {
                "conv_id": df["conv_id"],
                "new_turn_idx": new_idx.astype("int64"),
                "orig_turn_idx": df["turn_idx"].astype("int64"),
                "role": df["role"],
                "text_md5": df["text_md5"],
            }
        )


def turn_reindex(ds):
    """Canonical turn-order REPAIR: re-sort each conversation by event time
    (ts NULLS LAST, original turn_idx / text-digest / role as deterministic
    tie-breaks) and assign a fresh contiguous 0-based turn index — the
    normalize transform run after the checks plane FLAGS ordering / gap /
    uniqueness violations and before assembly or export consumes the
    conversation. This is the reference's 'stable turn ordering' contract
    (BASELINE.json input_hint) applied as a repair instead of a check.

    Scale shape: text is digested MAP-SIDE to a 32-hex md5, so the payload
    never enters the exchange (same projection discipline as turn_pairs);
    ONE conversation-keyed exchange co-locates whole conversations; each bucket
    runs one vectorized sort + cumcount over thousands of conversations per
    task. Output = one row per input turn, ~60 B/row shuffled.

    SQL twin: ROW_NUMBER() OVER (PARTITION BY conv_id ORDER BY ts,
    turn_idx, coalesce(md5(text),''), coalesce(role,'')) - 1.
    """

    def digest_project(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "conv_id": df["conv_id"],
                "turn_idx": df["turn_idx"],
                "role": df["role"],
                "ts": df["ts"],
                "text_md5": _md5_series(df["text"]),
            }
        )

    digest_project.__name__ = "digest_project"

    projected = ds.select_columns(
        ["conv_id", "turn_idx", "role", "ts", "text"]
    ).map_batches(digest_project, batch_format="pandas")
    return exchange(projected, "conv_id", _ReindexBucket())


class _SnapshotFpBucket:
    """One call = one hash bucket of conversations: sort the pre-rendered
    turn lines (the line string is a total order over the multiset, so both
    engines agree regardless of input order), concat per conversation, md5."""

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["conv_id", "line"], kind="stable")
        docs = (
            df.groupby("conv_id", sort=False)["line"]
            .agg("\n".join)
            .reset_index(name="doc")
        )
        docs["fp_md5"] = _md5_series(docs["doc"])
        return docs[["conv_id", "fp_md5"]]


# reserved diff key for rows with NULL conv_id (private-use codepoint — no
# real conv_id starts with U+E000): the null rows of each snapshot roll up
# under this key, so the diff DETECTS when they change even though they
# cannot be addressed individually. Downstream, the marker in an
# added/changed status forces a revalidation pass (whose only_convs filter
# keeps null-conv rows), and in a removed status tells the merge to retire
# the base log's null rows.
NULL_CONV_MARKER = "null_conv"


def snapshot_fingerprints(ds):
    """FULL-ROW per-conversation fingerprint for snapshot diffing: every
    column of the turn participates (turn_idx, role, md5(text), tool,
    epoch-us ts), so a change in ANY of them — a ts reorder, a tool rename,
    a turn-index gap that preserves relative order — flips the conversation
    to 'changed'. `conversation_docs` (the SFT-export rollup) deliberately
    hashes only ordered role|text and must NOT be used as a diff key: it is
    blind to exactly the ts/tool/index violations the validator exists to
    catch.

    Scale shape: the line is rendered MAP-SIDE (text digested to md5 before
    the exchange), ~70 B/row shuffled; one bucketed shuffle co-locates
    conversations; rows with NULL conv_id roll up under
    ``NULL_CONV_MARKER`` so changes to them are still detected.

    SQL twin: md5(string_agg(<line expr>, chr(10) ORDER BY <line expr>))
    GROUP BY conv_id WHERE conv_id IS NOT NULL, with
    <line expr> = coalesce(CAST(turn_idx AS VARCHAR),'') || '|' ||
    coalesce(role,'') || '|' || coalesce(md5(text),'') || '|' ||
    coalesce(tool,'') || '|' || coalesce(CAST(epoch_us(ts) AS VARCHAR),'').
    """

    def render_line(df: pd.DataFrame) -> pd.DataFrame:
        # int render must never produce '5.0': nullable Int64 → str → '<NA>'
        # swap (same canonicalization rationale as bucketed_count_per_key)
        tidx = df["turn_idx"].astype("Int64").astype(str).replace("<NA>", "")
        ts = pd.to_datetime(df["ts"])
        us = ts.astype("int64")
        if str(ts.dtype).startswith("datetime64[ns"):
            us = us // 1000
        us_str = us.astype(str).where(ts.notna(), "")
        line = (
            tidx
            + "|"
            + df["role"].fillna("")
            + "|"
            + _md5_series(df["text"]).fillna("")
            + "|"
            + df["tool"].fillna("")
            + "|"
            + us_str
        )
        return pd.DataFrame(
            {"conv_id": df["conv_id"].fillna(NULL_CONV_MARKER), "line": line}
        )

    render_line.__name__ = "render_fp_line"

    projected = ds.select_columns(
        ["conv_id", "turn_idx", "role", "text", "tool", "ts"]
    ).map_batches(render_line, batch_format="pandas")
    return exchange(projected, "conv_id", _SnapshotFpBucket())


def changed_conversations(left, right):
    """Snapshot diff for INCREMENTAL revalidation: compare two corpus
    versions at conversation granularity and emit (conv_id, status) with
    status in {added, removed, changed, same} — downstream revalidation
    then touches only the added/changed conversations instead of
    rescanning 10^12 turns.

    Scale shape: each side first collapses to ONE ROW PER CONVERSATION
    (`snapshot_fingerprints`: bucketed shuffle over map-side-rendered
    ~70 B lines covering EVERY turn column), so the reconciliation join
    moves ~50 B per conversation, not per turn; the join is the null-safe
    tagged-union `full_outer_join` (one shuffle). Nothing touches the
    driver. Rows with NULL conv_id roll up under ``NULL_CONV_MARKER`` —
    an added/changed marker status forces a revalidation pass (whose
    `only_convs` filter keeps null-conv rows unconditionally), so changes
    to unaddressable rows are never silently skipped.

    SQL twin: two snapshot-fingerprint CTEs + FULL OUTER JOIN + CASE.
    """
    import numpy as np

    from .joins import full_outer_join

    docs_l = snapshot_fingerprints(left)
    docs_r = snapshot_fingerprints(right)

    def rename_right(df: pd.DataFrame) -> pd.DataFrame:
        return df.rename(columns={"fp_md5": "fp_md5_r"})

    rename_right.__name__ = "rename_right"

    joined = full_outer_join(
        docs_l,
        docs_r.map_batches(rename_right, batch_format="pandas"),
        on="conv_id",
    )

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        l, r = df["fp_md5"], df["fp_md5_r"]
        status = np.where(
            l.isna(),
            "added",
            np.where(r.isna(), "removed", np.where(l.eq(r), "same", "changed")),
        )
        return pd.DataFrame({"conv_id": df["conv_id"], "status": status})

    classify.__name__ = "classify_status"
    return joined.map_batches(classify, batch_format="pandas")


class _RollingCharsBucket:
    """One call = one hash bucket of conversations: stable-order rows, then a
    per-conversation ROWS-frame rolling sum of text length (current + the
    window-1 preceding turns). Rows are contiguous per conversation after
    `_ordered` (conv_id leads the sort key), so one grouped-rolling pass
    covers every conversation in the bucket."""

    def __init__(self, window: int):
        self.window = window

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        df = _ordered(df)
        n = df["_text_f"].str.len().astype("int64")
        roll = (
            n.groupby(df["conv_id"].to_numpy(), sort=False)
            .rolling(self.window, min_periods=1)
            .sum()
            .reset_index(drop=True)
            .astype("int64")
        )
        return pd.DataFrame(
            {
                "conv_id": df["conv_id"],
                "turn_idx": df["turn_idx"],
                "n_chars": n,
                "roll_chars": roll,
            }
        )


def rolling_turn_chars(ds, window: int = 3):
    """Frame-based window aggregate: per turn, the rolling sum of text length
    over the current + (window-1) PRECEDING turns of the same conversation in
    the stable turn order → (conv_id, turn_idx, n_chars, roll_chars). The SQL
    `SUM(...) OVER (PARTITION BY ... ORDER BY ... ROWS BETWEEN k PRECEDING
    AND CURRENT ROW)` frame — a window shape none of the repo's other
    operators (tumbling/sliding/session/rank) cover, and one Ray Data has no
    native operator for.

    Output rows that tie on the full stable key are bit-identical in every
    ordering column, so tie order cannot change any rolling sum. Scale shape:
    projection → ONE bucketed conversation shuffle → vectorized grouped
    rolling; output volume = input volume, no driver materialization."""
    projected = ds.select_columns(["conv_id", "turn_idx", "role", "text"])
    return exchange(projected, "conv_id", _RollingCharsBucket(window))


def small_group_rollup(ds, key_col: str, aggs: list, sort: bool = True):
    """Counts/sums grouped by a LOW-cardinality key (dimension segments,
    event types) over a corpus-scale table: per-block pandas partials →
    bounded driver sum → pandas DataFrame. `aggs` is a list of
    (out_col, src_col_or_None, how) with how in {'size', 'sum'}.

    Rationale: Ray's groupby().aggregate() pays its sort cost on the INPUT
    row count even for 5 output groups (measured 4.2s over 150k rows /
    5 groups at sf0.1); per-block combining makes the exchange
    blocks × groups partial rows and the driver pull the same bound —
    the error-rate finish's bound class."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(key_col, sort=False)
        out = {}
        for out_col, src, how in aggs:
            out[out_col] = g.size() if how == "size" else g[src].sum()
        return pd.DataFrame(out).reset_index()

    partial.__name__ = "small_group_partials"
    cols = [key_col] + [a[0] for a in aggs]
    # project before the scan: the partial reads only the key + agg sources,
    # so wide payload columns must not pay the Arrow->pandas conversion
    in_cols = [key_col] + sorted({a[1] for a in aggs if a[1]})
    pdf = (
        ds.select_columns(in_cols)
        .map_batches(partial, batch_format="pandas")
        .to_pandas()
    )
    if pdf.empty:
        out = pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})
        out[key_col] = out[key_col].astype(object)
        return out
    out = pdf.groupby(key_col, sort=sort)[[a[0] for a in aggs]].sum().reset_index()
    for a in aggs:
        out[a[0]] = out[a[0]].astype("int64")
    return out[cols]


def bucketed_reduce_per_key(ds, key_col, aggs: list, dropna: bool = True):
    """Generic additive/extremal reduce GROUP BY a corpus-cardinality key
    (a single column name or a list of columns for a composite key):
    per-block pandas partials → keyed exchange → per-bucket pandas merge.
    `aggs` = list of (out_col, src_col_or_None, how) with how in
    {'size', 'sum', 'min', 'max'} ('size' partials merge by SUM). The
    n-ary sibling of `bucketed_count_per_key` — same skew bound (a hot key
    contributes ≤ blocks partial rows, all in one bucket).

    `dropna=False` keeps null-key rows as their own group (SQL GROUP BY
    semantics); the exchange routes every null form of a key to one
    bucket, so all null-key partials meet in one group."""
    keys = [key_col] if isinstance(key_col, str) else list(key_col)
    merge_how = {"size": "sum", "sum": "sum", "min": "min", "max": "max"}

    def reduce_partials(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(keys, sort=False, dropna=dropna)
        out = {}
        for out_col, src, how in aggs:
            out[out_col] = g.size() if how == "size" else getattr(g[src], how)()
        return pd.DataFrame(out).reset_index()

    out_cols = [a[0] for a in aggs]

    def bucketed_reduce_merge(g: pd.DataFrame) -> pd.DataFrame:
        gg = g.groupby(keys, sort=False, dropna=dropna)
        out = {c: getattr(gg[c], merge_how[h])() for c, _, h in aggs}
        return pd.DataFrame(out).reset_index()[keys + out_cols]

    cols = keys + sorted({a[1] for a in aggs if a[1] and a[1] not in keys})
    return exchange(ds.select_columns(cols), keys, bucketed_reduce_merge, reduce_partials)
