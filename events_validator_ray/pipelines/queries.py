"""Driver-facing query registry: every implemented operator/pipeline from
SURVEY.md §2 as a named callable over an ``sf_dir``, with a DuckDB oracle-SQL
twin where the semantics are SQL-expressible.

Conventions (driver contract): each callable takes sf_dir and returns a
Dataset / DataFrame / pyarrow Table; computed column names match the SQL
aliases exactly; genuinely approximate ops (HLL, t-digest, simhash Hamming,
winnowing fingerprints, stubbed codecs) omit the oracle and get the driver's
rows-only check — their accuracy is asserted against exact twins in pytest
instead. Minhash/embedding dedup ARE oracle-checked: their verified pairs
are exact metrics (n-gram Jaccard / cosine) among LSH candidates, and
candidate recall at the threshold is 1 on these corpora (asserted in
tests/test_dedup_oracle.py), so cluster labels match the DuckDB
exact-pairs + recursive-components twins. IVF ANN is oracle-checked in its
full-probe (exact-by-construction) configuration; its approximate config
keeps a recall bound in pytest.

The transcript corpus is the deterministic synthetic table from
sources/transcripts.py, cached under /tmp; the oracle SQL reads the SAME
parquet files via read_parquet(), so both engines see identical bytes.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from ..spec import Spec, load_spec, transcript_spec
from ..sources.transcripts import ensure_transcripts, sf_from_dir, transcripts_glob
from .sqlgen import (
    column_kinds_for_transcripts,
    conversation_violations_sql,
    scalar_violations_sql,
    valid_fields_sql,
    valid_rows_condition,
)

VCOLS = ["event_id", "field", "error_type", "expected", "actual", "event_name", "status"]

#: spec for the TPC-H-ish `events` stream table (second schema exercising the
#: same engine; 'error' events are enum violations by design)
EVENTS_SPEC_JSON = {
    "event_id": {"type": "number"},
    "ts": {"type": "timestamp"},
    "user_id": {"type": "number"},
    "event_type": {
        "type": "string",
        "enum": ["click", "view", "purchase", "signup"],
    },
    "value": {"type": "number"},
    "props": {"type": "string", "regex": "^\\{"},
}

EVENTS_COL_KINDS = {
    "event_id": "number",
    "ts": "timestamp",
    "user_id": "number",
    "event_type": "string",
    "value": "number",
    "props": "string",
}


def events_spec() -> Spec:
    return load_spec(EVENTS_SPEC_JSON, event_name="events")


def _tdir(sf_dir: str) -> str:
    return ensure_transcripts(sf_from_dir(sf_dir))


def _read_transcripts(sf_dir: str):
    import ray.data as rd

    return rd.read_parquet(_tdir(sf_dir))


def _read_events(sf_dir: str):
    import ray.data as rd
    import os

    return rd.read_parquet(os.path.join(sf_dir, "events.parquet"))


# ---------------------------------------------------------------------------
# Transcript queries
# ---------------------------------------------------------------------------


def q_validate_scalar(sf_dir: str):
    """Core operator (SURVEY.md §2.2 M2-M7): vectorized scalar+ref validation,
    error rows only."""
    from ..stages.validate import ValidateBatch

    ds = _read_transcripts(sf_dir)
    return ds.map_batches(
        ValidateBatch(transcript_spec(), log_valid=False),
        batch_format="pyarrow",
        batch_size=None,  # whole-block batches: the validator is fully vectorized
        zero_copy_batch=True,
    ).select_columns(VCOLS)


def q_valid_turns(sf_dir: str):
    """logPassed analog (M8): one valid row per clean turn."""
    from ..stages.validate import ValidateBatch

    ds = _read_transcripts(sf_dir)
    return (
        ds.map_batches(
            ValidateBatch(transcript_spec(), log_valid=True),
            batch_format="pyarrow",
            batch_size=None,
            zero_copy_batch=True,
        )
        .filter(expr="status == 'valid'")
        .select_columns(["event_id", "event_name", "status"])
    )


def q_conversation_checks(sf_dir: str):
    """Wide checks (J4/§2.7): unique, contiguity, ts ordering, first-role."""
    from ..stages.conversation import conversation_violations

    ds = _read_transcripts(sf_dir)
    return conversation_violations(ds, transcript_spec()).select_columns(VCOLS)


def q_conversation_checks_salted(sf_dir: str):
    """The same one path at chunk=1000: identical rows; a conversation is
    salted into 1000-turn slices when one block holds ≥ 1000 of its rows."""
    from ..stages.conversation import conversation_violations_salted

    ds = _read_transcripts(sf_dir)
    return conversation_violations_salted(
        ds, transcript_spec(), chunk=1000
    ).select_columns(VCOLS)


def q_failures_by_day(sf_dir: str):
    """Report A2 (validation_report.py:110-116): failures by day × field."""
    from ..pipelines.report import failures_by_day
    from ..stages.validate import ValidateBatch

    ds = _read_transcripts(sf_dir)
    log = ds.map_batches(
        ValidateBatch(transcript_spec(), log_valid=False, date_from="ts"),
        batch_format="pyarrow",
        batch_size=None,  # whole-block batches: the validator is fully vectorized
        zero_copy_batch=True,
    )
    return failures_by_day(log, dim="field")


def q_error_rate(sf_dir: str):
    """Report A3 (validation_report.py:119-131): per-day distinct totals and
    distinct error events (rate numerator/denominator; ints for exactness)."""
    from ..pipelines.report import daily_error_rate
    from ..stages.validate import ValidateBatch

    ds = _read_transcripts(sf_dir)
    log = ds.map_batches(
        ValidateBatch(transcript_spec(), log_valid=True, date_from="ts"),
        batch_format="pyarrow",
        batch_size=None,  # whole-block batches: the validator is fully vectorized
        zero_copy_batch=True,
    )
    df = daily_error_rate(log)
    return df[["date_utc", "n_events", "n_error_events"]]


def q_column_stats(sf_dir: str):
    """Exact column profile (north rule: per-column count/null/min-max) via
    the mergeable-sketch stage."""
    import pandas as pd

    from ..stages.sketches import sketch_dataset

    ds = _read_transcripts(sf_dir)
    cols = ["conv_id", "turn_idx", "role", "text", "tool"]
    sk = sketch_dataset(ds, {c: ("stats",) for c in cols})
    rows = []
    for c in cols:
        st = sk[(c, "stats")]
        rows.append(
            {
                "col": c,
                "n_count": st.count,
                "n_nulls": st.nulls,
                "min_str": None if st.min is None else str(st.min),
                "max_str": None if st.max is None else str(st.max),
            }
        )
    return pd.DataFrame(rows)


#: (column, render-kind, suggested rule type) for the transcript spec
#: inference — render kinds per stages/sketches.capped_distinct_profile.
SPEC_SUGGEST_COLS = [
    ("conv_id", "str", "string"),
    ("turn_idx", "int", "number"),
    ("role", "str", "string"),
    ("text", "str", "string"),
    ("tool", "str", "string"),
    ("ts", "ts_us", "number"),
]


def q_spec_suggest(sf_dir: str):
    """Spec inference from observed data (the constructive inverse of the
    reference's schema editor, streamlit_ev/app/helpers/updater.py: suggest a
    rule per column instead of hand-authoring one): per-column row/null
    counts, capped distinct count, rendered max length, and — when the
    distinct set fits under ENUM_MAX with every value ≤ ENUM_VALUE_MAX_LEN —
    the exact sorted enum candidate list. Driver pull is bounded by
    blocks × cols × (ENUM_MAX+2) rows, never value cardinality."""
    import pandas as pd

    from ..stages.sketches import (
        ENUM_MAX,
        ENUM_VALUE_MAX_LEN,
        capped_distinct_profile,
    )

    cols = [c for c, _, _ in SPEC_SUGGEST_COLS]
    renders = {c: k for c, k, _ in SPEC_SUGGEST_COLS}
    prof = capped_distinct_profile(_read_transcripts(sf_dir), cols, renders)
    rows = []
    for c, _, typ in SPEC_SUGGEST_COLS:
        p = prof[c]
        enum_ok = bool(p["values"]) and p["max_len"] <= ENUM_VALUE_MAX_LEN
        rows.append(
            {
                "col": c,
                "n_rows": p["n_rows"],
                "n_nulls": p["n_nulls"],
                "n_distinct_capped": p["n_distinct_capped"],
                "max_len": p["max_len"],
                "suggested_type": typ,
                "optional": int(p["n_nulls"] > 0),
                "enum_values": ",".join(p["values"]) if enum_ok else "",
            }
        )
    df = pd.DataFrame(rows)
    for c in ["n_rows", "n_nulls", "n_distinct_capped", "max_len", "optional"]:
        df[c] = df[c].astype("int64")
    return df


def spec_suggest_oracle(sf: float) -> str:
    """SQL twin of q_spec_suggest: one UNION ALL branch per profiled column,
    same render expressions (LENGTH/string_agg over the canonical string
    render) and the same capped-distinct / enum-qualification rules."""
    from ..stages.sketches import ENUM_MAX, ENUM_VALUE_MAX_LEN

    t = _transcripts_table_sql(sf)
    cap = ENUM_MAX + 1
    branches = []
    for c, kind, typ in SPEC_SUGGEST_COLS:
        if kind == "int":
            r = f"CAST({c} AS VARCHAR)"
        elif kind == "ts_us":
            r = f"CAST(epoch_us({c}) AS VARCHAR)"
        else:
            r = c
        branches.append(
            f"SELECT '{c}' AS col, COUNT(*) AS n_rows, "
            f"COUNT(*) - COUNT({c}) AS n_nulls, "
            f"CAST(LEAST(COUNT(DISTINCT {c}), {cap}) AS BIGINT) AS n_distinct_capped, "
            f"CAST(COALESCE(MAX(LENGTH({r})), 0) AS BIGINT) AS max_len, "
            f"'{typ}' AS suggested_type, "
            f"CAST(CASE WHEN COUNT(*) > COUNT({c}) THEN 1 ELSE 0 END AS BIGINT) AS optional, "
            f"CASE WHEN COUNT(DISTINCT {c}) BETWEEN 1 AND {ENUM_MAX} "
            f"AND COALESCE(MAX(LENGTH({r})), 0) <= {ENUM_VALUE_MAX_LEN} "
            f"THEN string_agg(DISTINCT {r}, ',' ORDER BY {r}) ELSE '' END AS enum_values "
            f"FROM {t}"
        )
    return " UNION ALL ".join(branches)


def q_hll_distinct_conv(sf_dir: str):
    """HLL distinct conversations (approx; rows-only check — accuracy is
    asserted against exact in tests/test_sketches.py)."""
    import pandas as pd

    from ..stages.sketches import sketch_dataset

    ds = _read_transcripts(sf_dir)
    sk = sketch_dataset(ds, {"conv_id": ("hll",)})
    return pd.DataFrame(
        [{"col": "conv_id", "approx_distinct": int(round(sk[("conv_id", "hll")].estimate()))}]
    )


def ensure_hll_hash_sidecar(sf_dir: str) -> str:
    """Emit (conv_id, h) — hash64 of each DISTINCT transcript conv_id — to a
    /tmp sidecar so the DuckDB twin can recompute the HLL REGISTER STATE
    with pure bit ops. hash64 (pandas' SipHash-based hash_array) is the only
    non-SQL-expressible step; the register index (top p bits), rank
    (leading-zeros of the low 64-p bits via smear + bit_count), per-register
    maxima and the rank histogram are all SQL. Repeated values hash
    identically, so the distinct projection leaves registers unchanged.
    Correctness apparatus only (the k-means-centroid / simhash-signature
    sidecar precedent); keyed on the transcript corpus files' identity so a
    regenerated corpus can never pair with a stale sidecar."""
    import glob
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from ..stages.sketches import hash64

    tdir = _tdir(sf_dir)
    parts = sorted(glob.glob(os.path.join(tdir, "*.parquet")))
    sig = sum(os.stat(p).st_size for p in parts)
    mt = max(int(os.stat(p).st_mtime) for p in parts)
    path = f"/tmp/graft_hllhash_v1/conv_{len(parts)}_{sig}_{mt}.parquet"
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        uniq = pc.unique(
            pq.read_table(tdir, columns=["conv_id"])["conv_id"]
        ).drop_null()
        h = hash64(uniq.to_numpy(zero_copy_only=False))
        tmp = path + ".tmp"
        pq.write_table(
            pa.table(
                {
                    "conv_id": uniq,
                    "h": pa.array(np.asarray(h, dtype=np.uint64), pa.uint64()),
                }
            ),
            tmp,
        )
        os.replace(tmp, path)
    return path


from ..stages.sketches import HLL_DEFAULT_P as HLL_P  # twin constants derive
# from the sketch's own default — a p change can't desynchronize the oracle


def q_hll_registers(sf_dir: str):
    """HLL register-state census over conv_id: the distributed sketch's
    final register array reduced to (reg_rank, n_registers). Unlike the
    estimate (a float channel), register maxima are ORDER-INDEPENDENT
    integers — merge is element-wise max, commutative and associative — so
    the whole partial→combine→driver-merge plumbing is exactly
    hash-checkable. The estimate is a closed-form function of this
    histogram, which upgrades the HLL path from rows-only to value-checked
    (only the t-digest, whose merge is order-dependent, stays rows-only)."""
    import numpy as np
    import pandas as pd

    from ..stages.sketches import sketch_dataset

    ds = _read_transcripts(sf_dir)
    sk = sketch_dataset(ds, {"conv_id": ("hll",)})
    regs = sk[("conv_id", "hll")].registers
    ranks, counts = np.unique(regs, return_counts=True)
    return pd.DataFrame(
        {
            "reg_rank": ranks.astype("int64"),
            "n_registers": counts.astype("int64"),
        }
    )


def hll_registers_oracle(sf_dir: str) -> str:
    """Recompute the registers from the hash sidecar in SQL: idx = top p
    bits, rank = 51 - bit_length(low 50 bits) (leading zeros + 1; the
    smear-then-popcount chain is exact bit_length), MAX per idx, histogram
    by rank with the untouched-register (rank 0) bucket reconstructed as
    m - |occupied|."""
    path = ensure_hll_hash_sidecar(sf_dir)
    m = 1 << HLL_P
    bits = 64 - HLL_P
    mask = (1 << bits) - 1
    return (
        f"WITH v AS (SELECT CAST(h >> {bits} AS BIGINT) AS idx, "
        f"CAST(h & {mask} AS BIGINT) AS wf FROM read_parquet('{path}')), "
        "s1 AS (SELECT idx, wf|(wf>>1) AS a FROM v), "
        "s2 AS (SELECT idx, a|(a>>2) AS a FROM s1), "
        "s3 AS (SELECT idx, a|(a>>4) AS a FROM s2), "
        "s4 AS (SELECT idx, a|(a>>8) AS a FROM s3), "
        "s5 AS (SELECT idx, a|(a>>16) AS a FROM s4), "
        "s6 AS (SELECT idx, a|(a>>32) AS a FROM s5), "
        f"r AS (SELECT idx, MAX({bits + 1} - CAST(bit_count(a) AS BIGINT)) "
        "AS reg_rank FROM s6 GROUP BY idx), "
        "hist AS (SELECT reg_rank, COUNT(*) AS n_registers FROM r GROUP BY reg_rank "
        f"UNION ALL SELECT 0, {m} - c FROM (SELECT COUNT(*) AS c FROM r) WHERE c < {m}) "
        "SELECT reg_rank, n_registers FROM hist ORDER BY reg_rank"
    )


def q_quantiles_turn_idx(sf_dir: str):
    """t-digest quantiles (approx; rows-only check)."""
    import pandas as pd

    from ..stages.sketches import sketch_dataset

    ds = _read_transcripts(sf_dir)
    sk = sketch_dataset(ds, {"turn_idx": ("tdigest",)})
    td = sk[("turn_idx", "tdigest")]
    return pd.DataFrame(
        [{"q": q, "value": td.quantile(q)} for q in (0.5, 0.9, 0.99)]
    )


def q_distinct_conv_exact(sf_dir: str):
    """EXACT distributed distinct count (the HLL query's ground-truth twin):
    per-batch dedup combiner -> value-hash bucket -> per-bucket dedup
    (assembly.bucketed_distinct_values — distinct conv_id scales with the
    corpus, so the sort-based groupby().count() path is out per the
    CLAUDE.md reduction invariant). Shuffles one row per distinct value per
    block, never the corpus."""
    import pandas as pd

    from ..stages.assembly import bucketed_distinct_values

    ds = _read_transcripts(sf_dir).select_columns(["conv_id"])
    n = bucketed_distinct_values(ds, "conv_id").count()
    return pd.DataFrame([{"col": "conv_id", "n_distinct": int(n)}])


def q_quantiles_exact(sf_dir: str):
    """EXACT distributed quantiles over turn_idx (the t-digest query's
    ground-truth twin): per-block value counts folded on the driver
    (``fold.sum_by_key``; cardinality-bounded), driver cumsum +
    quantile_disc rank rule (lower interpolation)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..stages.fold import sum_by_key

    def value_counts(t: pa.Table) -> pa.Table:
        return t.group_by("turn_idx", use_threads=False).aggregate([([], "count_all")])

    schema = pa.schema([("turn_idx", pa.int64()), ("count_all", pa.int64())])
    vc = sum_by_key(
        _read_transcripts(sf_dir).select_columns(["turn_idx"]), schema, ["turn_idx"], value_counts
    )
    counts = vc["count_all"].to_numpy()
    vals = vc["turn_idx"].to_numpy()
    cum = np.cumsum(counts)
    total = int(cum[-1])
    rows = []
    for q in (0.5, 0.9, 0.99):
        # DuckDB quantile_disc: element at rank ceil(q * n) (1-based)
        rank = max(1, int(np.ceil(q * total)))
        idx = int(np.searchsorted(cum, rank))
        rows.append({"q_permille": int(round(q * 1000)), "value": int(vals[idx])})
    return pd.DataFrame(rows)


#: fixed reference profile the role histogram is drifted against
DRIFT_ROLE_REFERENCE = {"user": 45, "assistant": 35, "tool": 12, "system": 8}


def q_drift_roles(sf_dir: str):
    """Per-role observed counts + chi-square drift parts vs a fixed reference
    profile, micro-scaled to exact integers. The distributed piece (mergeable
    CatHist sketch over the corpus) is hash-checked against a DuckDB GROUP BY;
    the chi-square part per key is multiply/divide/subtract-only IEEE doubles
    reproduced op-for-op in the SQL twin (no float SUM, no transcendentals),
    so the compare is exact. Keys absent from the reference (out-of-enum
    'robot', null roles) emit chi_part_micro = -1. The PSI aggregate
    (`drift_report`) stays unit-tested — log() isn't bit-portable."""
    import math

    from ..stages.sketches import CatHist, sketch_dataset

    ds = _read_transcripts(sf_dir)
    sk = sketch_dataset(ds, {"role": ("cathist",)})
    counts = dict(sk[("role", "cathist")].counts)
    n_o = sum(counts.values())
    n_r = sum(DRIFT_ROLE_REFERENCE.values())
    rows = []
    for k in set(counts) | set(DRIFT_ROLE_REFERENCE):
        obs = int(counts.get(k, 0))
        ref = int(DRIFT_ROLE_REFERENCE.get(k, 0))
        if ref > 0:
            exp = (n_o * ref) / n_r
            diff = obs - exp
            chi_micro = int(math.floor((diff * diff / exp) * 1_000_000 + 0.5))
        else:
            chi_micro = -1
        rows.append(
            {
                "key": "(null)" if k == CatHist.NULL else k,
                "n_obs": obs,
                "chi_part_micro": chi_micro,
            }
        )
    import pandas as pd

    return pd.DataFrame(rows).sort_values("key").reset_index(drop=True)


def drift_roles_oracle(table_sql: str) -> str:
    ref_vals = ", ".join(f"('{k}', {v})" for k, v in DRIFT_ROLE_REFERENCE.items())
    exp = "(CAST(j.n_o * j.r AS DOUBLE) / j.n_r)"
    return (
        f"WITH obs AS (SELECT COALESCE(role, '(null)') AS key, COUNT(*) AS n "
        f"FROM {table_sql} GROUP BY 1), "
        f"ref(key, r) AS (VALUES {ref_vals}), "
        "keys AS (SELECT key FROM obs UNION SELECT key FROM ref), "
        "j AS (SELECT k.key, COALESCE(o.n, 0) AS n_obs, COALESCE(rf.r, 0) AS r, "
        "(SELECT SUM(n) FROM obs) AS n_o, (SELECT SUM(r) FROM ref) AS n_r "
        "FROM keys k LEFT JOIN obs o ON o.key = k.key "
        "LEFT JOIN ref rf ON rf.key = k.key) "
        "SELECT j.key AS key, CAST(j.n_obs AS BIGINT) AS n_obs, "
        f"CASE WHEN j.r > 0 THEN CAST(floor(((j.n_obs - {exp}) * (j.n_obs - {exp}) "
        f"/ {exp}) * 1000000 + 0.5) AS BIGINT) ELSE -1 END AS chi_part_micro "
        "FROM j"
    )


# ---------------------------------------------------------------------------
# Events-table queries (pre-registered DuckDB view `events`)
# ---------------------------------------------------------------------------


def q_validate_events(sf_dir: str):
    """The same engine over a second schema: the events stream table."""
    from ..stages.validate import ValidateBatch

    ds = _read_events(sf_dir)
    return ds.map_batches(
        ValidateBatch(events_spec(), log_valid=False, id_cols=("event_id",)),
        batch_format="pyarrow",
        batch_size=None,  # whole-block batches: the validator is fully vectorized
        zero_copy_batch=True,
    ).select_columns(VCOLS)


def q_events_failures_by_day(sf_dir: str):
    from ..pipelines.report import failures_by_day
    from ..stages.validate import ValidateBatch

    ds = _read_events(sf_dir)
    log = ds.map_batches(
        ValidateBatch(events_spec(), log_valid=False, id_cols=("event_id",), date_from="ts"),
        batch_format="pyarrow",
        batch_size=None,  # whole-block batches: the validator is fully vectorized
        zero_copy_batch=True,
    )
    return failures_by_day(log, dim="field")


def q_events_error_rate(sf_dir: str):
    from ..pipelines.report import daily_error_rate
    from ..stages.validate import ValidateBatch

    ds = _read_events(sf_dir)
    log = ds.map_batches(
        ValidateBatch(events_spec(), log_valid=True, id_cols=("event_id",), date_from="ts"),
        batch_format="pyarrow",
        batch_size=None,  # whole-block batches: the validator is fully vectorized
        zero_copy_batch=True,
    )
    df = daily_error_rate(log)
    return df[["date_utc", "n_events", "n_error_events"]]


# ---------------------------------------------------------------------------
# Training-data ops: dedup / similarity / text (documents + embeddings tables)
# ---------------------------------------------------------------------------

ANN_QUERY_IDS = [0, 1, 2, 3, 4]
ANN_K = 5


def _read_table(sf_dir: str, name: str, columns: list[str] | None = None):
    """Read one sf table; pass `columns` whenever the query needs a subset so
    pruning happens AT THE READ (row-group/column projection in the parquet
    reader) instead of depending on Ray's projection pushdown to rescue a
    trailing select_columns (VERDICT r4 item 8)."""
    import os

    import ray.data as rd

    return rd.read_parquet(os.path.join(sf_dir, f"{name}.parquet"), columns=columns)


def q_dedup_exact(sf_dir: str):
    """Exact dedup keepers: min doc_id per distinct text (hash-partitioned)."""
    from ..stages.dedup import exact_dedup

    return exact_dedup(_read_table(sf_dir, "documents"))


def q_dedup_keep_best(sf_dir: str):
    """Priority dedup keepers: one (doc_id, source) per exact content group,
    chosen by (source ASC, doc_id ASC) — corpus-union precedence
    (stages/dedup.py:keep_best_dedup; one content-hash groupby, packed
    priority key Min)."""
    from ..stages.dedup import keep_best_dedup

    return keep_best_dedup(_read_table(sf_dir, "documents"))


def q_funnel_counts(sf_dir: str):
    """Ordered signup→click→purchase funnel over the event stream: users
    reaching each stage strictly after the previous stage's earliest
    qualifying event (stages/windows.py:funnel_counts — one bucketed user
    shuffle, len(stages)-row result)."""
    from ..stages.windows import funnel_counts

    return funnel_counts(
        _read_table(sf_dir, "events"), stages=["signup", "click", "purchase"]
    )


def q_ngram_topk(sf_dir: str):
    """Corpus top-50 word bigrams by count, ties broken on the gram
    (stages/text.py:ngram_topk — per-batch count combiner, vocabulary-sized
    sort)."""
    from ..stages.text import ngram_topk

    return ngram_topk(_read_table(sf_dir, "documents", columns=["text"]), n=2, k=50)


PMI_MIN_COUNT = 5


def q_ngram_pmi(sf_dir: str):
    """Collocation extraction: integer-exact PMI components (w1, w2, n_xy,
    n_x, n_y) for bigrams with count >= 5 (stages/text.py:ngram_pmi —
    combiner-bounded count tables + two bucketed hash joins)."""
    from ..stages.text import ngram_pmi

    return ngram_pmi(_read_table(sf_dir, "documents", columns=["text"]), min_count=PMI_MIN_COUNT)


HH_PERMILLE = 8


def q_user_growth(sf_dir: str):
    """Cumulative audience: per day, first-seen users and the running total
    (stages/windows.py:user_growth — one bucketed per-user Min, then
    per-block day counts folded on the driver and a days-sized cumulate)."""
    from ..stages.windows import user_growth

    return user_growth(_read_table(sf_dir, "events"))


def q_sessionize(sf_dir: str):
    """Row-level sessionization: every event enriched with its 30-min
    gap-session's start (stages/windows.py:sessionize_events — one bucketed
    user shuffle, output volume = input volume)."""
    from ..stages.windows import sessionize_events

    return sessionize_events(
        _read_table(sf_dir, "events"), key="user_id", ts_col="ts", gap_s=1800
    )


def q_heavy_hitters(sf_dir: str):
    """Frequent items, exactly: users with >= 0.8% of all events
    (stages/sketches.py:heavy_hitters_exact — pigeonhole local-frequency
    candidates + broadcast exact verify, two linear passes, no corpus
    shuffle)."""
    from ..stages.sketches import heavy_hitters_exact

    return heavy_hitters_exact(
        _read_table(sf_dir, "events"), col="user_id", threshold_permille=HH_PERMILLE
    )


def q_window_distinct(sf_dir: str):
    """Sliding-window distinct actives: COUNT(DISTINCT user_id) per
    (event_type, 24h window hopping by 12h) — bounded window replication +
    the skew-safe distinct-count reduction
    (stages/windows.py:sliding_window_distinct)."""
    from ..stages.windows import sliding_window_distinct

    return sliding_window_distinct(
        _read_table(sf_dir, "events"),
        key="event_type",
        val="user_id",
        ts_col="ts",
        window_s=86400,
        slide_s=43200,
    )


def q_dedup_minhash(sf_dir: str):
    """MinHash-LSH near-dup clustering (full labeling incl. singletons).
    Verified-pair semantics are EXACT n-gram Jaccard >= 0.8 among LSH
    candidates; on the test corpora banded-LSH recall at the threshold is 1
    (planted pairs sit at J >= 0.9 with the next pair below 0.2 — asserted in
    tests/test_dedup_oracle.py), so the cluster labels hash-match the DuckDB
    exact-Jaccard + recursive-components twin."""
    from ..stages.dedup import minhash_lsh_dedup

    return minhash_lsh_dedup(
        _read_table(sf_dir, "documents", columns=["doc_id", "text"]), threshold=0.8, include_singletons=True
    )


def _components_sql(pair_sql: str, universe_sql: str, id_out: str) -> str:
    """Recursive-CTE connected components over an (a, b) pair relation:
    transitive closure seeded with self-loops, cluster = MIN reachable id —
    the SQL twin of `_union_find` / `distributed_components`."""
    return (
        f"WITH RECURSIVE {pair_sql}, "
        "sym AS (SELECT a AS u, b AS v FROM epairs UNION ALL SELECT b, a FROM epairs), "
        f"reach(u, v) AS ({universe_sql} UNION "
        "SELECT r.u, s.v FROM reach r JOIN sym s ON s.u = r.v) "
        f"SELECT u AS {id_out}, MIN(v) AS cluster FROM reach GROUP BY u"
    )


def minhash_components_oracle() -> str:
    """Exact word-3-gram Jaccard >= 0.8 all-pairs (DISTINCT shingles; docs
    with 1-2 tokens contribute one all-token shingle; two zero-token docs are
    trivially identical — union 0 -> J=1) -> connected components."""
    pair_sql = (
        "toks AS (SELECT doc_id, regexp_extract_all(lower(coalesce(text, '')), "
        "'[a-z0-9]+') AS ts FROM documents), "
        "pos AS (SELECT doc_id, unnest(ts) AS tok, generate_subscripts(ts, 1) AS p, "
        "len(ts) AS n FROM toks), "
        "sh AS (SELECT a.doc_id, a.tok || ' ' || b.tok || ' ' || c.tok AS s "
        "FROM pos a JOIN pos b ON b.doc_id = a.doc_id AND b.p = a.p + 1 "
        "JOIN pos c ON c.doc_id = a.doc_id AND c.p = a.p + 2 WHERE a.n >= 3 "
        "UNION ALL SELECT doc_id, string_agg(tok, ' ' ORDER BY p) FROM pos "
        "WHERE n BETWEEN 1 AND 2 GROUP BY doc_id), "
        "dsh AS (SELECT DISTINCT doc_id, s FROM sh), "
        "sizes AS (SELECT doc_id, COUNT(*) AS sz FROM dsh GROUP BY doc_id), "
        "inter AS (SELECT x.doc_id AS a, y.doc_id AS b, COUNT(*) AS i "
        "FROM dsh x JOIN dsh y ON x.s = y.s AND x.doc_id < y.doc_id GROUP BY 1, 2), "
        "epairs AS (SELECT i.a, i.b FROM inter i "
        "JOIN sizes sa ON sa.doc_id = i.a JOIN sizes sb ON sb.doc_id = i.b "
        "WHERE CAST(i.i AS DOUBLE) / (sa.sz + sb.sz - i.i) >= 0.8 "
        "UNION ALL SELECT t1.doc_id, t2.doc_id FROM toks t1 JOIN toks t2 "
        "ON t1.doc_id < t2.doc_id WHERE len(t1.ts) = 0 AND len(t2.ts) = 0)"
    )
    return _components_sql(pair_sql, "SELECT doc_id, doc_id FROM documents", "doc_id")


def embedding_components_oracle() -> str:
    """Exact all-pairs cosine >= 0.98 -> connected components (margin: the
    sf0.01 corpus has no pair within 0.4 of the threshold; planted-dup parity
    is tested on synthetic corpora in tests/test_dedup_oracle.py)."""
    pair_sql = (
        # DOUBLE[] cast per the repo-wide cosine-twin rule: FLOAT-list
        # list_cosine_similarity computes in float32 and can flip decisions
        # within ~1e-6 of the threshold vs the engine's float64
        "epairs AS (SELECT e1.vec_id AS a, e2.vec_id AS b "
        "FROM embeddings e1 JOIN embeddings e2 ON e1.vec_id < e2.vec_id "
        "WHERE list_cosine_similarity("
        "list_transform(e1.embedding, x -> CAST(x AS DOUBLE)), "
        "list_transform(e2.embedding, x -> CAST(x AS DOUBLE))) >= 0.98)"
    )
    return _components_sql(pair_sql, "SELECT vec_id, vec_id FROM embeddings", "vec_id")


def _sidecar_path(root: str, sf_dir: str, table: str = "documents") -> str:
    """Cache path for an engine-emitted sidecar, keyed on the source file's
    identity (size+mtime) so a regenerated corpus can never pair with a stale
    sidecar."""
    import os

    st = os.stat(os.path.join(sf_dir, f"{table}.parquet"))
    return f"/tmp/{root}/{table[:4]}_{st.st_size}_{int(st.st_mtime)}.parquet"


def ensure_simhash_sigs(sf_dir: str) -> str:
    """Emit the engine's simhash signature table (doc_id, simhash int64
    bit-cast) to a /tmp sidecar so the DuckDB twin can recompute the Hamming
    verify + components over the SAME signatures with bit ops. The hashes
    are engine data (simhash_vector is the exact kernel the distributed
    stage runs), so parity hash-checks all downstream plumbing — banded
    candidates, pair policy, distributed verify, assembly — like the
    ann_topk_ivf full-probe twin. Correctness apparatus only: at scale the
    signatures live inside the pipeline, never in a driver-side file."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ..stages.dedup import simhash_vector

    path = _sidecar_path("graft_simhash_v1", sf_dir)
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        docs = pq.read_table(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
        )
        import numpy as np

        sh = simhash_vector(docs["text"].to_numpy(zero_copy_only=False))
        tmp = path + ".tmp"
        pq.write_table(
            pa.table({"doc_id": docs["doc_id"], "simhash": pa.array(sh.view(np.int64))}),
            tmp,
        )
        os.replace(tmp, path)
    return path


def simhash_components_oracle(sf_dir: str) -> str:
    """Exact all-pairs Hamming <= 3 over the emitted signature table ->
    connected components. Candidate recall of the engine's 4x16-bit banding
    is exactly 1 by pigeonhole (<= 3 differing bits across 4 bands leaves
    at least one band identical), so the only engine-side approximation is
    the pair_cap policy, which preserves in-bucket connectivity."""
    path = ensure_simhash_sigs(sf_dir)
    pair_sql = (
        f"sig AS (SELECT doc_id, simhash FROM read_parquet('{path}')), "
        "epairs AS (SELECT s1.doc_id AS a, s2.doc_id AS b FROM sig s1 "
        "JOIN sig s2 ON s1.doc_id < s2.doc_id "
        "WHERE bit_count(xor(s1.simhash, s2.simhash)) <= 3)"
    )
    return _components_sql(pair_sql, "SELECT doc_id, doc_id FROM sig", "doc_id")


def q_dup_cluster_stats(sf_dir: str):
    """Dedup report: cluster-size histogram of the MinHash-LSH labeling
    (cluster_size, n_clusters) — sum(size×n)=corpus; the dup-rate view every
    dedup run ends with (stages/dedup.py:dup_cluster_stats — a bucketed
    label → size count, then a driver fold of the size histogram)."""
    from ..stages.dedup import dup_cluster_stats, minhash_lsh_dedup

    labels = minhash_lsh_dedup(
        _read_table(sf_dir, "documents", columns=["doc_id", "text"]), threshold=0.8, include_singletons=True
    )
    return dup_cluster_stats(labels)


def q_dedup_simhash(sf_dir: str):
    """SimHash near-dup full labeling. Emits the signature sidecar first so
    the DuckDB twin (simhash_components_oracle) sees identical signatures;
    the compared output is the cluster labeling itself."""
    from ..stages.dedup import simhash_dedup

    ensure_simhash_sigs(sf_dir)
    return simhash_dedup(
        _read_table(sf_dir, "documents", columns=["doc_id", "text"]), max_hamming=3, include_singletons=True
    )


def q_dedup_embedding(sf_dir: str):
    """Embedding near-dup full labeling. Banded hyperplane-LSH candidate
    recall at this (threshold, bands) is ~1 — asserted against exact all-pairs
    cosine in tests — so the verified pair set equals exact cosine >= 0.98
    pairs and the cluster labels hash-match the DuckDB recursive-components
    twin (margin: no sf0.01 pair sits within 0.4 of the threshold)."""
    from ..stages.dedup import embedding_dedup

    return embedding_dedup(
        _read_table(sf_dir, "embeddings"),
        threshold=0.98,
        n_bits=8,
        bands=8,
        include_singletons=True,
    )


KMEANS_K = 8
KMEANS_ITERS = 4


def ensure_kmeans_centroids(sf_dir: str) -> str:
    """Emit the fitted k-means centroids (cluster_id, centroid list<double>)
    to a /tmp sidecar for the cluster_assign twin. Fitted with the
    deterministic driver-side replica (kmeans_fit_local — no Ray session may
    exist at oracle-SQL-build time); the DISTRIBUTED fit (kmeans_fit) is
    differential-tested against this replica in tests/test_similarity_text.py.
    Correctness apparatus only: at scale the centroids are a broadcast
    object, never a driver-side file."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ..stages.similarity import kmeans_fit_local

    path = _sidecar_path("graft_kmeans_v1", sf_dir, table="embeddings")
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        emb = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"))
        C = kmeans_fit_local(emb, k=KMEANS_K, iters=KMEANS_ITERS)
        tmp = path + ".tmp"
        pq.write_table(
            pa.table(
                {
                    "cluster_id": pa.array(range(len(C)), pa.int64()),
                    "centroid": pa.array([list(map(float, row)) for row in C]),
                }
            ),
            tmp,
        )
        os.replace(tmp, path)
    return path


def q_cluster_assign(sf_dir: str):
    """Topic clustering for data balancing: nearest-centroid assignment of
    every embedding against the fitted k-means centroids — broadcast
    centroids, map-only pass (stages/similarity.py). The hash-checked surface
    is the distributed assignment plumbing; the fit itself is
    differential-tested (distributed vs local replica)."""
    import pyarrow.parquet as pq

    from ..stages.similarity import kmeans_assign

    path = ensure_kmeans_centroids(sf_dir)
    C = pq.read_table(path)["centroid"].to_pylist()
    import numpy as np

    return kmeans_assign(_read_table(sf_dir, "embeddings"), np.asarray(C, dtype=np.float64))


def cluster_assign_oracle(sf_dir: str) -> str:
    path = ensure_kmeans_centroids(sf_dir)
    return (
        f"WITH c AS (SELECT cluster_id, centroid FROM read_parquet('{path}')), "
        "a AS (SELECT e.vec_id, c.cluster_id, "
        "list_distance(CAST(e.embedding AS DOUBLE[]), CAST(c.centroid AS DOUBLE[])) AS d "
        "FROM embeddings e CROSS JOIN c), "
        "r AS (SELECT vec_id, cluster_id, ROW_NUMBER() OVER "
        "(PARTITION BY vec_id ORDER BY d, cluster_id) AS rn FROM a) "
        "SELECT vec_id, cluster_id FROM r WHERE rn = 1"
    )


def cluster_purity_oracle(sf_dir: str) -> str:
    path = ensure_kmeans_centroids(sf_dir)
    return (
        f"WITH c AS (SELECT cluster_id, centroid FROM read_parquet('{path}')), "
        "a AS (SELECT e.vec_id, e.label, c.cluster_id, "
        "list_distance(CAST(e.embedding AS DOUBLE[]), CAST(c.centroid AS DOUBLE[])) AS d "
        "FROM embeddings e CROSS JOIN c), "
        "r AS (SELECT vec_id, label, cluster_id, ROW_NUMBER() OVER "
        "(PARTITION BY vec_id ORDER BY d, cluster_id) AS rn FROM a), "
        "g AS (SELECT cluster_id, label, COUNT(*) AS n FROM r WHERE rn = 1 "
        "GROUP BY 1, 2), "
        "t AS (SELECT cluster_id, CAST(SUM(n) AS BIGINT) AS n_vectors FROM g GROUP BY 1), "
        "m AS (SELECT cluster_id, label, n, ROW_NUMBER() OVER "
        "(PARTITION BY cluster_id ORDER BY n DESC, label) AS rn FROM g) "
        "SELECT t.cluster_id, t.n_vectors, CAST(m.label AS BIGINT) AS top_label, "
        "CAST(m.n AS BIGINT) AS n_top "
        "FROM t JOIN m ON m.cluster_id = t.cluster_id AND m.rn = 1"
    )


def q_semantic_dedup(sf_dir: str):
    """SemDeDup (arXiv:2303.09540): k-means topic clusters → exact pairwise
    cosine ≥ 0.98 WITHIN each cluster → per-cluster components → keeper =
    min vec_id (stages/similarity.py:semantic_dedup). Reuses the
    cluster_assign centroid sidecar (distributed fit differential-tested vs
    the local replica); same wide cosine margin as dedup_embedding, so the
    engine's normalized-dot float64 and DuckDB's list_cosine_similarity
    agree on every pair decision."""
    import numpy as np
    import pyarrow.parquet as pq

    from ..stages.similarity import semantic_dedup

    path = ensure_kmeans_centroids(sf_dir)
    C = np.asarray(pq.read_table(path)["centroid"].to_pylist(), dtype=np.float64)
    return semantic_dedup(
        _read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
        C,
        threshold=0.98,
    )


def semantic_dedup_oracle(sf_dir: str) -> str:
    """Nearest-centroid assignment (list_distance argmin, the cluster_assign
    twin) + within-cluster cosine pairs + recursive-CTE components, keeper =
    MIN reachable id — the SQL mirror of semantic_dedup's group-local
    union-find."""
    path = ensure_kmeans_centroids(sf_dir)
    return (
        "WITH RECURSIVE "
        f"c AS (SELECT cluster_id, centroid FROM read_parquet('{path}')), "
        "a AS (SELECT e.vec_id, e.embedding, c.cluster_id, "
        "list_distance(CAST(e.embedding AS DOUBLE[]), CAST(c.centroid AS DOUBLE[])) AS d "
        "FROM embeddings e CROSS JOIN c), "
        "r AS (SELECT vec_id, embedding, cluster_id, ROW_NUMBER() OVER "
        "(PARTITION BY vec_id ORDER BY d, cluster_id) AS rn FROM a), "
        "m AS (SELECT vec_id, embedding, cluster_id FROM r WHERE rn = 1), "
        "epairs AS (SELECT m1.vec_id AS a, m2.vec_id AS b FROM m m1 JOIN m m2 "
        "ON m1.cluster_id = m2.cluster_id AND m1.vec_id < m2.vec_id "
        "WHERE list_cosine_similarity(CAST(m1.embedding AS DOUBLE[]), "
        "CAST(m2.embedding AS DOUBLE[])) >= 0.98), "
        "sym AS (SELECT a AS u, b AS v FROM epairs "
        "UNION ALL SELECT b, a FROM epairs), "
        "reach(u, v) AS (SELECT vec_id, vec_id FROM m UNION "
        "SELECT r2.u, s.v FROM reach r2 JOIN sym s ON s.u = r2.v), "
        "lab AS (SELECT u AS vec_id, MIN(v) AS rep_id FROM reach GROUP BY u) "
        "SELECT m.vec_id, m.cluster_id, lab.rep_id, "
        "CAST(m.vec_id <> lab.rep_id AS BIGINT) AS is_dup "
        "FROM m JOIN lab ON lab.vec_id = m.vec_id"
    )


def q_ann_topk(sf_dir: str):
    """Brute-force cosine top-k (broadcast queries, per-batch matmul).
    score_micro = floor(sim * 1e6 + 0.5) keeps the compare integral."""
    import numpy as np

    from ..stages.similarity import ann_topk

    df = ann_topk(_read_table(sf_dir, "embeddings"), ANN_QUERY_IDS, k=ANN_K)
    df = df.copy()
    df["score_micro"] = np.floor(df["score"] * 1_000_000 + 0.5).astype("int64")
    return df[["query_id", "vec_id", "rank", "score_micro"]]


def q_ann_topk_ivf(sf_dir: str):
    """IVF machinery in its FULL-PROBE configuration (nprobe = n_centroids):
    every bucket is searched, so the result is exact by construction and
    hash-checks against the same brute-force SQL as `ann_topk` — what gets
    verified is the IVF plumbing itself (centroid training, bucket
    assignment, probed-bucket semi-join, partial top-k merge). The
    APPROXIMATE configuration (nprobe < n_centroids) keeps its recall bound
    in tests/test_similarity_text.py."""
    import numpy as np

    from ..stages.similarity import ann_topk_ivf

    df = ann_topk_ivf(
        _read_table(sf_dir, "embeddings"), ANN_QUERY_IDS, k=ANN_K, n_centroids=16, nprobe=16
    )
    df = df.copy()
    df["score_micro"] = np.floor(df["score"] * 1_000_000 + 0.5).astype("int64")
    return df[["query_id", "vec_id", "rank", "score_micro"]]


KNN_K = 5


def q_knn_graph(sf_dir: str):
    """EXACT all-pairs kNN graph: top-5 cosine neighbors per vector (self
    excluded, neighbor_id tie-break) — the similarity-graph construction
    baseline (stages/similarity.py:knn_graph; corpus broadcast once, one
    matmul per block, block outputs are final)."""
    from ..stages.similarity import knn_graph

    return knn_graph(_read_table(sf_dir, "embeddings"), k=KNN_K)


def q_knn_graph_ivf(sf_dir: str):
    """Bucketed-graph machinery in its FULL-PROBE configuration (nprobe =
    n_centroids): every vector queries every bucket, so the merged result is
    exact by construction and hash-checks against the same cross-join SQL as
    `knn_graph` — what gets verified is the multi-probe plumbing itself
    (probe replication, home-bucket candidacy, per-bucket partial top-k, the
    raw-float-ordered per-vector merge). The APPROXIMATE configuration
    (nprobe < n_centroids) keeps its recall bound in
    tests/test_similarity_text.py (mirrors the ann_topk_ivf precedent)."""
    from ..stages.similarity import knn_graph_ivf

    return knn_graph_ivf(
        _read_table(sf_dir, "embeddings"), k=KNN_K, n_centroids=16, nprobe=16
    )


def q_hard_negatives(sf_dir: str):
    """Hard-negative mining: each vector's top-5 cosine neighbors carrying a
    DIFFERENT label — the close-but-wrong pairs a contrastive loss trains on
    (stages/similarity.py:hard_negatives — exact kNN graph + two bucketed
    label joins + vectorized mismatch filter)."""
    from ..stages.similarity import hard_negatives

    return hard_negatives(_read_table(sf_dir, "embeddings"), k=KNN_K)


def q_text_stats(sf_dir: str):
    """Integer text statistics (token/char/punct/stopword counts) — the
    SQL-exact slice of the quality-scoring stage."""
    import re

    import pandas as pd

    from ..stages.text import LANG_STOPWORDS, TOKEN_PATTERN

    word_re = re.compile(TOKEN_PATTERN)
    # re.ASCII pins \w/\s to ASCII like the RE2 classes in the DuckDB twin:
    # without it Python treats 'é' as a word char while RE2 counts it as
    # punctuation, so non-ASCII text would flip n_punct between engines
    punct_re = re.compile(r"[^\w\s]", re.ASCII)
    stop = LANG_STOPWORDS["en"]

    def stats(batch: pd.DataFrame) -> pd.DataFrame:
        text = batch["text"].fillna("")
        toks = text.str.lower().str.findall(word_re)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "n_chars": text.str.len().astype("int64"),
                "n_tokens": toks.map(len).astype("int64"),
                "n_punct": text.str.count(punct_re).astype("int64"),
                "n_stop": toks.map(lambda ws: sum(w in stop for w in ws)).astype("int64"),
            }
        )

    return _read_table(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(stats, batch_format="pandas")


def q_grouped_quantiles(sf_dir: str):
    """Per-group EXACT quantiles (order price quantiles per priority class);
    value compared in integer cents — quantile_disc picks a stored double,
    so both engines see the identical bits."""
    import pandas as pd

    from ..stages.sampling import grouped_quantiles

    ds = _read_table(sf_dir, "orders", columns=["o_orderpriority", "o_totalprice"])
    out = grouped_quantiles(ds, key="o_orderpriority", col="o_totalprice").to_pandas()

    def cents(x: pd.Series) -> pd.Series:
        # micro-int idiom: floor(x*100 + 0.5) reproduces bit-for-bit in the
        # SQL twin (pandas .round() is half-even, DuckDB round() half-away)
        import numpy as np

        return np.floor(x * 100 + 0.5).astype("int64")

    out["value_cents"] = cents(out["value"])
    return out[["o_orderpriority", "q_permille", "value_cents"]]


def q_quantile_filter(sf_dir: str):
    """Exact distributed quantile-threshold filter (keep docs at/above the
    median n_chars — the 'top-X% by quality' curation selector)."""
    from ..stages.sampling import quantile_threshold_filter

    ds = _read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return quantile_threshold_filter(ds, "n_chars", 0.5)


def q_token_count_bpe(sf_dir: str):
    """GPT-2-style pretokenizer token counts (the BPE-ish regex slot) —
    RE2 on both sides, so the count is engine-exact."""
    from ..stages.text import BpeTokenCount

    return _read_table(sf_dir, "documents").map_batches(
        BpeTokenCount(), batch_format="pyarrow"
    )


def q_quality_scores(sf_dir: str):
    """Quality features with ratio columns micro-scaled to exact integers
    (floor(x*1e6+0.5) on raw IEEE doubles — the SQL twin reproduces the
    identical double ops, so the hash compare is exact)."""
    import numpy as np
    import pandas as pd

    from ..stages.text import quality_scores

    def to_micro(df: pd.DataFrame) -> pd.DataFrame:
        def micro(x):
            return np.floor(x.to_numpy() * 1_000_000 + 0.5).astype("int64")

        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_chars": df["n_chars"],
                "n_tokens": df["n_tokens"],
                "mean_token_len_micro": micro(df["mean_token_len"]),
                "punct_ratio_micro": micro(df["punct_ratio"]),
                "stop_ratio_micro": micro(df["stop_ratio"]),
                "keep": df["keep"].astype("int64"),
            }
        )

    return quality_scores(_read_table(sf_dir, "documents", columns=["doc_id", "text"])).map_batches(
        to_micro, batch_format="pandas"
    )


def q_lang_id(sf_dir: str):
    """Language ID with the score micro-scaled to an exact integer."""
    import numpy as np
    import pandas as pd

    from ..stages.text import lang_id

    def to_micro(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "lang_pred": df["lang_pred"],
                "lang_score_micro": np.floor(
                    df["lang_score"].to_numpy() * 1_000_000 + 0.5
                ).astype("int64"),
            }
        )

    return lang_id(_read_table(sf_dir, "documents", columns=["doc_id", "text"])).map_batches(to_micro, batch_format="pandas")


def q_lang_mix(sf_dir: str):
    """Corpus language composition by source: per-(source, lang_pred) doc
    counts (stages/text.py:lang_mix — map-only partials folded on the
    driver, ≤ sources×languages result)."""
    from ..stages.text import lang_mix

    return lang_mix(_read_table(sf_dir, "documents"))


def q_repetition_stats(sf_dir: str):
    """Gopher-style repetition-quality signals (duplicate-line counts/chars +
    top word-2-gram count), all-integer output. The synthetic corpus is
    single-line, so the query measures a '\\n'-for-space rendering of each
    doc (the SQL twin applies the identical derivation) so the
    duplicate-line plane carries real signal."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.text import RepetitionStats

    def to_lines(t: pa.Table) -> pa.Table:
        txt = pc.replace_substring(pc.fill_null(t["text"], ""), " ", "\n")
        return pa.table({"doc_id": t["doc_id"], "text": txt})

    return (
        _read_table(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(to_lines, batch_format="pyarrow")
        .map_batches(RepetitionStats(), batch_format="pyarrow")
    )


def repetition_oracle() -> str:
    return (
        "WITH d AS (SELECT doc_id, replace(coalesce(text, ''), ' ', chr(10)) AS t FROM documents), "
        "lines AS (SELECT doc_id, unnest(string_split(t, chr(10))) AS line FROM d), "
        "lc AS (SELECT doc_id, line, count(*) AS c FROM lines GROUP BY 1, 2), "
        "lstats AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_lines, "
        "CAST(sum(c - 1) AS BIGINT) AS n_dup_lines, "
        "CAST(sum((c - 1) * length(line)) AS BIGINT) AS dup_line_chars, "
        "CAST(sum(c * length(line)) AS BIGINT) AS total_line_chars FROM lc GROUP BY 1), "
        "w AS (SELECT doc_id, regexp_extract_all(lower(t), '[a-z0-9]+') AS ws FROM d), "
        "pos AS (SELECT doc_id, ws, unnest(generate_series(1, greatest(len(ws) - 1, 0))) AS i FROM w), "
        "g AS (SELECT doc_id, ws[i] || ' ' || ws[i + 1] AS gram FROM pos), "
        "gc AS (SELECT doc_id, gram, count(*) AS c FROM g GROUP BY 1, 2), "
        "gstats AS (SELECT doc_id, CAST(max(c) AS BIGINT) AS top2_count, "
        "CAST(sum(c) AS BIGINT) AS n_2grams FROM gc GROUP BY 1) "
        "SELECT d.doc_id, l.n_lines, l.n_dup_lines, l.dup_line_chars, l.total_line_chars, "
        "coalesce(gs.n_2grams, 0) AS n_2grams, coalesce(gs.top2_count, 0) AS top2_count "
        "FROM d JOIN lstats l ON l.doc_id = d.doc_id "
        "LEFT JOIN gstats gs ON gs.doc_id = d.doc_id"
    )


#: deterministic pseudo-benchmark: every 37th doc stands in for the eval
#: suite whose n-grams must not leak into training data
CONTAMINATION_MOD = 37
CONTAMINATION_K = 3


def q_contamination_scan(sf_dir: str):
    """Benchmark-decontamination scan: per-doc word-3-gram occurrences that
    also appear in the broadcast benchmark gram set (docs with
    doc_id % 37 == 0 stand in for the eval suite)."""
    import pyarrow as pa

    from ..stages.text import ContaminationScan, build_benchmark_grams

    docs = _read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def bench_filter(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % CONTAMINATION_MOD == 0))

    bench_ds = docs.map_batches(bench_filter, batch_format="pyarrow")
    ref = build_benchmark_grams(bench_ds, k=CONTAMINATION_K)
    return docs.map_batches(
        ContaminationScan,
        fn_constructor_kwargs={"bench_ref": ref, "k": CONTAMINATION_K},
        batch_format="pyarrow",
        # autoscaling pool: a fixed concurrency equal to the cluster CPU
        # count reserves every CPU for the actors and starves the upstream
        # read tasks (observed deadlock on a 4-CPU test cluster)
        concurrency=(1, 4),
    )


def contamination_oracle() -> str:
    return (
        "WITH d AS (SELECT doc_id, regexp_extract_all(lower(coalesce(text, '')), "
        "'[a-z0-9]+') AS ws FROM documents), "
        "pos AS (SELECT doc_id, ws, unnest(generate_series(1, greatest(len(ws) - 2, 0))) AS i FROM d), "
        "grams AS (SELECT doc_id, ws[i] || ' ' || ws[i + 1] || ' ' || ws[i + 2] AS gram FROM pos), "
        f"bench AS (SELECT DISTINCT gram FROM grams WHERE doc_id % {CONTAMINATION_MOD} = 0), "
        "tot AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_grams FROM grams GROUP BY 1), "
        "hits AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_hits FROM grams "
        "WHERE gram IN (SELECT gram FROM bench) GROUP BY 1) "
        "SELECT d.doc_id, coalesce(t.n_grams, 0) AS n_grams, coalesce(h.n_hits, 0) AS n_hits "
        "FROM d LEFT JOIN tot t ON t.doc_id = d.doc_id "
        "LEFT JOIN hits h ON h.doc_id = d.doc_id"
    )


def q_pii_scan(sf_dir: str):
    """PII detect + redact: the corpus carries no PII, so the query decorates
    each doc with a deterministic synthetic email/URL/phone (identical
    derivation in the SQL twin) and compares match counts plus the md5 of
    the redacted text — RE2 on both engines, so the comparison is exact."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.text import PiiScan

    def decorate(t: pa.Table) -> pa.Table:
        ids = pc.cast(t["doc_id"], pa.string())
        txt = pc.binary_join_element_wise(
            "contact user",
            ids,
            "@mail.example.com or https://ex.org/d/",
            ids,
            " call 555-000-",
            ids,
            " ",
            pc.fill_null(t["text"], ""),
            "",
        )
        return pa.table({"doc_id": t["doc_id"], "text": txt})

    return (
        _read_table(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(decorate, batch_format="pyarrow")
        .map_batches(PiiScan(), batch_format="pyarrow")
    )


def pii_oracle() -> str:
    from ..stages.text import EMAIL_PATTERN, PHONE_PATTERN, URL_PATTERN

    e = EMAIL_PATTERN.replace("'", "''")
    u = URL_PATTERN.replace("'", "''")
    p = PHONE_PATTERN.replace("'", "''")
    return (
        "WITH d AS (SELECT doc_id, 'contact user' || CAST(doc_id AS VARCHAR) || "
        "'@mail.example.com or https://ex.org/d/' || CAST(doc_id AS VARCHAR) || "
        "' call 555-000-' || CAST(doc_id AS VARCHAR) || ' ' || coalesce(text, '') AS t "
        "FROM documents) "
        "SELECT doc_id, "
        f"CAST(len(regexp_extract_all(t, '{e}')) AS BIGINT) AS n_emails, "
        f"CAST(len(regexp_extract_all(t, '{u}')) AS BIGINT) AS n_urls, "
        f"CAST(len(regexp_extract_all(t, '{p}')) AS BIGINT) AS n_phones, "
        f"md5(regexp_replace(regexp_replace(t, '{e}', '<EMAIL>', 'g'), "
        f"'{u}', '<URL>', 'g')) AS redacted_md5 "
        "FROM d"
    )


def q_zscore_scaled(sf_dir: str):
    """Per-source z-score standardization of n_chars (feature scaling):
    exact int64 moments + an IEEE-order-matched float expression on both
    engines, so z_micro compares bit-exact (see stages/scaling.py)."""
    from ..stages.scaling import group_zscore

    return group_zscore(_read_table(sf_dir, "documents", columns=["doc_id", "n_chars", "source"]), col="n_chars", key="source")


def zscore_oracle() -> str:
    # NULL key/value rows are excluded symmetrically with the engine
    # (stages/scaling.py module docstring): without the WHERE, count(*)
    # counts NULL n_chars rows that sum() skips, skewing n vs s1/s2
    return (
        "WITH st AS (SELECT source, CAST(count(*) AS BIGINT) AS n, "
        "CAST(sum(n_chars) AS BIGINT) AS s1, "
        "CAST(sum(n_chars * n_chars) AS BIGINT) AS s2 FROM documents "
        "WHERE n_chars IS NOT NULL AND source IS NOT NULL GROUP BY 1), "
        "d AS (SELECT source, n, s1, "
        "floor(sqrt(CAST(n * s2 - s1 * s1 AS DOUBLE))) AS den FROM st) "
        "SELECT doc_id, documents.source AS source, "
        "CAST(CASE WHEN den > 0 THEN "
        "floor(CAST(n_chars * n - s1 AS DOUBLE) * 1000000.0 / den) "
        "ELSE 0 END AS BIGINT) AS z_micro "
        "FROM documents JOIN d ON d.source = documents.source "
        "WHERE n_chars IS NOT NULL"
    )


def q_tfidf_top_terms(sf_dir: str):
    """Per-doc most-distinctive term by tf x integer-quantized idf
    (bitlen(N // df)) — integer/string output, exact DuckDB twin."""
    from ..stages.text import tfidf_top_terms

    docs = _read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return tfidf_top_terms(docs, n_docs=docs.count())


def tfidf_oracle() -> str:
    return (
        "WITH toks AS (SELECT doc_id, unnest(regexp_extract_all("
        "lower(coalesce(text, '')), '[a-z0-9]+')) AS term FROM documents), "
        "tf AS (SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf "
        "FROM toks GROUP BY 1, 2), "
        "df AS (SELECT term, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY 1), "
        "n AS (SELECT CAST(count(*) AS BIGINT) AS n FROM documents), "
        "scored AS (SELECT tf.doc_id, tf.term, "
        "tf.tf * length(printf('%b', n.n // df.df)) AS score "
        "FROM tf CROSS JOIN n JOIN df ON df.term = tf.term) "
        "SELECT doc_id, term AS top_term, CAST(score AS BIGINT) AS top_score "
        "FROM scored QUALIFY row_number() OVER "
        "(PARTITION BY doc_id ORDER BY score DESC, term ASC) = 1"
    )


def ensure_gram_hashes(sf_dir: str) -> str:
    """Emit the engine's 5-gram hash table (doc_id, pos, gh int64 bit-cast)
    for the documents corpus to a /tmp sidecar: the DuckDB twin recomputes
    the winnowing window-min selection in SQL over the SAME gram hashes
    (_shingle_hashes is the exact kernel Fingerprint runs), hash-checking
    the batch-vectorized sliding-min/boundary-mask/dedup plumbing.
    Correctness apparatus only — never part of the scale path."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ..stages.dedup import _shingle_hashes

    path = _sidecar_path("graft_grams_v1", sf_dir)
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        docs = pq.read_table(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
        )
        h, off = _shingle_hashes(docs["text"].to_numpy(zero_copy_only=False), n=5)
        counts = np.diff(off)
        doc_of = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        pos = np.arange(len(h), dtype=np.int64) - off[doc_of]
        ids = docs["doc_id"].to_numpy(zero_copy_only=False)[doc_of]
        tmp = path + ".tmp"
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(ids),
                    "pos": pa.array(pos),
                    "gh": pa.array(h.view(np.int64)),
                }
            ),
            tmp,
        )
        os.replace(tmp, path)
    return path


#: sign-bit flip constant: signed order of xor(v, SIGNBIT) == unsigned order
#: of v, so SQL MIN over flipped values selects the same element the engine's
#: uint64 min does
_SIGNBIT = "(-9223372036854775808)::BIGINT"


def _winnow_cte(sf_dir: str, w: int = 8) -> str:
    """Shared winnowing-selection CTE over the emitted gram-hash table, up to
    `d` = DISTINCT (doc_id, flipped-min) selected fingerprints. MIN uses the
    sign-flip trick so the selection is by UNSIGNED hash order, matching the
    engine's uint64 min."""
    path = ensure_gram_hashes(sf_dir)
    return (
        f"WITH g AS (SELECT doc_id, pos, gh FROM read_parquet('{path}')), "
        f"f AS (SELECT doc_id, pos, xor(gh, {_SIGNBIT}) AS fv, "
        "COUNT(*) OVER (PARTITION BY doc_id) AS n FROM g), "
        "wm AS (SELECT doc_id, n, pos, MIN(fv) OVER (PARTITION BY doc_id "
        f"ORDER BY pos ROWS BETWEEN CURRENT ROW AND {w - 1} FOLLOWING) AS m FROM f), "
        f"sel AS (SELECT doc_id, m FROM wm WHERE n > {w} AND pos <= n - {w} "
        f"UNION ALL SELECT doc_id, MIN(fv) FROM f WHERE n <= {w} GROUP BY doc_id), "
        "d AS (SELECT DISTINCT doc_id, m FROM sel)"
    )


def fingerprints_oracle(sf_dir: str, w: int = 8) -> str:
    """Winnowing selection in SQL over the emitted gram-hash table: distinct
    per-window minima for docs with > w grams (full windows only), the
    whole-doc min for docs with 1..w grams, empty fingerprint for gramless
    docs."""
    return (
        f"{_winnow_cte(sf_dir, w)}, "
        "agg AS (SELECT doc_id, COUNT(*) AS n_fp, "
        f"xor(MIN(m), {_SIGNBIT}) AS fp_min FROM d GROUP BY doc_id) "
        "SELECT dd.doc_id, CAST(coalesce(agg.n_fp, 0) AS BIGINT) AS n_fp, "
        "CAST(coalesce(agg.fp_min, 0) AS BIGINT) AS fp_min "
        "FROM documents dd LEFT JOIN agg ON agg.doc_id = dd.doc_id"
    )


def fingerprint_dups_oracle(sf_dir: str, w: int = 8) -> str:
    """MOSS-style collision report over the same winnowing selection:
    fingerprints shared by >= 2 distinct documents."""
    return (
        f"{_winnow_cte(sf_dir, w)} "
        f"SELECT xor(m, {_SIGNBIT}) AS fp, COUNT(DISTINCT doc_id) AS n_docs "
        "FROM d GROUP BY m HAVING COUNT(DISTINCT doc_id) >= 2"
    )


def dup_spans_oracle(sf_dir: str, k: int = 5) -> str:
    """Duplicate-span twin over the SAME emitted gram-hash table the
    winnowing twins use: grams in >= 2 distinct docs, per-doc interval union
    via a window-function gaps-and-islands pass (group-reset running max of
    span ends — the SQL rendering of span_union's cummax)."""
    path = ensure_gram_hashes(sf_dir)
    return (
        f"WITH g AS (SELECT doc_id, pos, gh FROM read_parquet('{path}')), "
        "dup AS (SELECT gh FROM g GROUP BY gh "
        "HAVING COUNT(DISTINCT doc_id) >= 2), "
        "p AS (SELECT g.doc_id, g.pos FROM g JOIN dup USING (gh)), "
        f"w AS (SELECT doc_id, pos, MAX(pos + {k}) OVER (PARTITION BY doc_id "
        "ORDER BY pos ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) "
        "AS prev_end FROM p), "
        "f AS (SELECT doc_id, CASE WHEN prev_end IS NULL OR pos > prev_end "
        "THEN 1 ELSE 0 END AS new_span, "
        f"GREATEST(0, pos + {k} - GREATEST(pos, COALESCE(prev_end, pos))) "
        "AS contrib FROM w) "
        "SELECT doc_id, CAST(SUM(new_span) AS BIGINT) AS n_dup_spans, "
        "CAST(SUM(contrib) AS BIGINT) AS n_dup_tokens FROM f GROUP BY doc_id"
    )


def _explode_fingerprints(df):
    """Explode per-doc winnowing fingerprint lists to distinct (fp int64,
    doc_id) pairs — the shared map_batches kernel of q_fingerprint_dups and
    q_split_leakage."""
    import numpy as np
    import pandas as pd

    reps = df["fingerprint"].map(len).to_numpy(dtype=np.int64)
    doc = np.repeat(df["doc_id"].to_numpy(), reps)
    if reps.sum():
        h = np.concatenate(
            [np.asarray(l, dtype=np.uint64) for l in df["fingerprint"] if len(l)]
        )
    else:
        h = np.array([], dtype=np.uint64)
    return pd.DataFrame({"fp": h.view(np.int64), "doc_id": doc}).drop_duplicates()


_explode_fingerprints.__name__ = "explode_fingerprints"


def q_dup_spans(sf_dir: str):
    """Cross-document duplicate SPANS (substring-level dedup signal — the
    span-granular generalization of exact dedup, after the suffix-array
    substring-dedup formulations): per doc, merged token intervals covered by
    5-grams occurring in >= 2 distinct docs -> (doc_id, n_dup_spans,
    n_dup_tokens). Scale shape: two bucketed shuffles over 24-byte gram
    triples (stages/text.py:dup_spans); documents never shuffle."""
    from ..stages.text import dup_spans

    ensure_gram_hashes(sf_dir)
    return dup_spans(_read_table(sf_dir, "documents", columns=["doc_id", "text"]))


def q_fingerprint_dups(sf_dir: str):
    """Cross-document fingerprint collisions (MOSS-style shared-content
    triage): winnowing fingerprints shared by >= 2 distinct docs →
    (fp, n_docs). Scale shape: explode per-doc fingerprint lists to
    (fp int64, doc_id) pairs (already distinct within a doc), then the
    skew-safe distinct_count_per_key reduction (assembly.py) — a fingerprint
    shared by most of the corpus never collapses into one task; fingerprints
    shuffle, documents never do."""
    from ..stages.assembly import distinct_count_per_key
    from ..stages.text import fingerprints

    ensure_gram_hashes(sf_dir)

    pair_ds = fingerprints(_read_table(sf_dir, "documents", columns=["doc_id", "text"])).map_batches(
        _explode_fingerprints, batch_format="pandas"
    )
    return distinct_count_per_key(pair_ds, "fp", "doc_id", "n_docs", min_count=2)


def q_split_leakage(sf_dir: str):
    """Train/test split leakage guard: split docs deterministically
    (doc_id % 10 — 8 train : 2 test) and report, per TEST doc, how many of
    its winnowing fingerprints also occur in ANY train doc → (doc_id,
    n_leaked_fps) for leaked docs. The own-splits analog of benchmark
    decontamination. Scale shape: fingerprints explode to distinct (fp,
    doc_id) pairs; the train fp set is NEVER broadcast or pulled — the test
    pairs go through joins.bloom_semi_join (distributed Bloom prefilter +
    exact survivor pass) and a single additive groupby(doc_id)."""
    import pandas as pd

    from ..stages.joins import bloom_semi_join
    from ..stages.text import fingerprints

    ensure_gram_hashes(sf_dir)
    # materialize ONCE: three consumers (bloom build, distinct train keys,
    # test pairs) would otherwise re-execute the winnowing lineage; the
    # materialized table is 16 bytes/row (fp, doc_id) — the same
    # share-the-projection precedent as ordered_prefix_sum
    pairs = (
        fingerprints(_read_table(sf_dir, "documents", columns=["doc_id", "text"]))
        .map_batches(_explode_fingerprints, batch_format="pandas")
        .materialize()
    )

    def side(test: bool):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            m = df["doc_id"] % 10 >= 8
            return df.loc[m if test else ~m]

        fn.__name__ = "test_split" if test else "train_split"
        return fn

    train_fps = pairs.map_batches(side(False), batch_format="pandas").select_columns(
        ["fp"]
    )
    test_pairs = pairs.map_batches(side(True), batch_format="pandas")
    leaked = bloom_semi_join(test_pairs, train_fps, on="fp")
    # test-doc cardinality scales with the corpus -> bucketed count, not
    # groupby(doc_id).aggregate (BASELINE.md addendum)
    from ..stages.assembly import bucketed_count_per_key

    return bucketed_count_per_key(leaked, "doc_id", "n_leaked_fps")


def q_fingerprints(sf_dir: str):
    """Winnowing fingerprints reduced to comparable scalars (distinct-count
    + unsigned-min, bit-cast to int64). Emits the gram-hash sidecar first so
    the DuckDB twin (fingerprints_oracle) reselects over identical hashes."""
    import pandas as pd

    from ..stages.text import fingerprints

    ensure_gram_hashes(sf_dir)

    def reduce(df: pd.DataFrame) -> pd.DataFrame:
        def bitcast_min(l) -> int:
            if not len(l):
                return 0
            v = min(l)
            return v - 2**64 if v >= 2**63 else v  # int64 bit-cast of uint64

        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_fp": df["fingerprint"].map(len).astype("int64"),
                "fp_min": df["fingerprint"].map(bitcast_min).astype("int64"),
            }
        )

    return fingerprints(_read_table(sf_dir, "documents", columns=["doc_id", "text"])).map_batches(
        reduce, batch_format="pandas"
    )


NESTED_CHILD_KINDS = {
    "items": {
        "item_id": "string",
        "item_name": "string",
        "price_cents": "number",
        "quantity": "number",
    },
    "meta": {"source": "string", "session_id": "string"},
    # list<list<string>>: JS property walk; __elem__ routes the SQL twin to
    # nested_jsarray_violations_sql with the inner element kind
    "tags": {"__elem__": "string"},
}
NESTED_FLAT_KINDS = {"event_id": "number", "currency": "string", "value_cents": "number"}


def q_validate_nested(sf_dir: str):
    """Vectorized `nestedSchema` validation over typed list<struct>/struct
    columns (the reference's marquee feature, validationHelpers.js:38-63;
    SURVEY.md §1.4): pc.list_flatten + parent indices, item paths
    `items[i].key`, dotted struct paths `meta.key`."""
    import ray.data as rd

    from ..sources.nested import NESTED_SPEC_JSON, ensure_nested_events
    from ..stages.validate import ValidateBatch

    ndir = ensure_nested_events(sf_from_dir(sf_dir))
    spec = load_spec(NESTED_SPEC_JSON, event_name="purchase")
    return (
        rd.read_parquet(ndir)
        .map_batches(
            ValidateBatch(spec, log_valid=False, id_cols=("event_id",)),
            batch_format="pyarrow",
            batch_size=None,
            zero_copy_batch=True,
        )
        .select_columns(VCOLS)
    )


def nested_oracle(sf: float = 0.01) -> str:
    from ..pipelines.sqlgen import nested_spec_violations_sql
    from ..sources.nested import NESTED_SPEC_JSON, ensure_nested_events, nested_glob

    ensure_nested_events(sf)
    spec = load_spec(NESTED_SPEC_JSON, event_name="purchase")
    t = f"read_parquet('{nested_glob(sf)}')"
    return nested_spec_violations_sql(
        spec, t, NESTED_FLAT_KINDS, key_cols=("event_id",), nested_kinds=NESTED_CHILD_KINDS
    )


def q_validate_json_props(sf_dir: str):
    """JSON-payload (nested-document) mode: the row oracle with full
    `nestedSchema` recursion semantics over the events table's `props` JSON
    column (SURVEY.md §2.2 M2; FIXTURES.md §4). Spec: k must be the number
    42 — the `value` rule fires via bilateral toString on every other k."""
    from ..spec import load_spec
    from ..stages.validate import ValidateJsonDocs

    spec = load_spec({"k": {"type": "number", "value": 42}}, event_name="props")
    ds = _read_events(sf_dir)
    return ds.map_batches(
        ValidateJsonDocs(
            {"props": spec},
            json_col="props",
            id_cols=("event_id",),
            default_event_name="props",
            log_valid=False,
        ),
        batch_format="pyarrow",
    ).select_columns(VCOLS)


def json_props_oracle() -> str:
    # value rule: actual?.toString() !== expected?.toString(); k is always an
    # integer in the corpus so the JSON text equals the JS toString
    return (
        "SELECT CAST(event_id AS VARCHAR) AS event_id, 'k' AS field, "
        "'value' AS error_type, '42' AS expected, "
        "CAST(json_extract(props, '$.k') AS VARCHAR) AS actual, "
        "'props' AS event_name, 'error' AS status "
        "FROM events WHERE CAST(json_extract(props, '$.k') AS VARCHAR) <> '42'"
    )


#: per-event-type schema map (J1 dispatch over the events table): `error`
#: events have no schema on purpose -> schema_not_found (index.js:47-50)
DISPATCH_SPECS_JSON: dict[str, dict] = {
    "click": {"value": {"type": "number", "length": 3}},  # length-on-number quirk
    "view": {"user_id": {"type": "number"}},
    "purchase": {"props": {"type": "string", "regex": '"k": [0-9]$'}},
    "signup": {"user_id": {"type": "number"}, "props": {"type": "string"}},
}


def q_validate_dispatch(sf_dir: str):
    """Per-record schema dispatch (J1): each event_type validated against its
    own spec; unmapped types -> schema_not_found."""
    from ..stages.validate import ValidateDispatchBatch

    specs = {
        name: load_spec(raw, event_name=name) for name, raw in DISPATCH_SPECS_JSON.items()
    }
    ds = _read_events(sf_dir)
    return ds.map_batches(
        ValidateDispatchBatch(
            specs, dispatch_col="event_type", id_cols=("event_id",), log_valid=False
        ),
        batch_format="pyarrow",
        batch_size=None,
        zero_copy_batch=True,
    ).select_columns(VCOLS)


def dispatch_oracle() -> str:
    parts = []
    for name, raw in DISPATCH_SPECS_JSON.items():
        spec = load_spec(raw, event_name=name)
        sub = f"(SELECT * FROM events WHERE event_type = '{name}')"
        parts.append(
            scalar_violations_sql(spec, sub, EVENTS_COL_KINDS, key_cols=("event_id",))
        )
    known = ", ".join(f"'{n}'" for n in DISPATCH_SPECS_JSON)
    parts.append(
        "SELECT CAST(event_id AS VARCHAR) AS event_id, CAST(NULL AS VARCHAR) AS field, "
        "'schema_not_found' AS error_type, 'schema' AS expected, 'not found' AS actual, "
        f"event_type AS event_name, 'error' AS status FROM events WHERE event_type NOT IN ({known})"
    )
    return "\nUNION ALL\n".join(parts)


def q_window_tumbling(sf_dir: str):
    """Event-time tumbling windows (1 day) per user over the events stream:
    the batch expression of a streaming windowed aggregate (SURVEY.md §2.9).
    Values summed in integer cents so the float summation order can't break
    oracle equality."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.windows import tumbling_window_agg

    def to_cents(t: pa.Table) -> pa.Table:
        # floor(x*100 + 0.5): same-bits rounding op as the SQL twin
        cents = pc.cast(
            pc.floor(pc.add(pc.multiply(t["value"], 100), 0.5)), pa.int64()
        )
        return t.drop_columns(["value"]).append_column("value_cents", cents)

    ds = _read_events(sf_dir).map_batches(to_cents, batch_format="pyarrow")
    return tumbling_window_agg(
        ds, key="user_id", ts_col="ts", window_s=86400, value_col="value_cents"
    )


def q_window_sliding(sf_dir: str):
    """Sliding/hopping event-time windows (1 day window, 12 h slide) per user:
    vectorized per-batch window replication -> one groupby; each event lands
    in exactly window/slide = 2 windows."""
    from ..stages.windows import sliding_window_agg

    return sliding_window_agg(
        _read_events(sf_dir), key="user_id", ts_col="ts", window_s=86400, slide_s=43200
    )


def sliding_oracle(window_s: int = 86400, slide_s: int = 43200) -> str:
    w, s = window_s * 1_000_000, slide_s * 1_000_000
    return (
        "WITH e AS (SELECT user_id, epoch_us(ts) AS tsu FROM events), "
        "x AS (SELECT user_id, unnest(range("
        f"GREATEST(((tsu - {w}) // {s} + 1) * {s}, 0), "
        f"(tsu // {s}) * {s} + {s}, {s})) AS ws_us FROM e) "
        "SELECT user_id, ws_us // 1000000 AS window_start, COUNT(*) AS n "
        "FROM x GROUP BY user_id, ws_us"
    )


def q_window_session(sf_dir: str):
    """Gap-based session windows (30 min) per user — the sessionizer is a
    hash-bucketed vectorized pass; oracle is the LAG/cumsum window-function
    twin."""
    from ..stages.windows import session_window_agg

    return session_window_agg(_read_events(sf_dir), key="user_id", ts_col="ts", gap_s=1800)


def session_oracle(gap_s: int = 1800) -> str:
    g = gap_s * 1_000_000
    return (
        "WITH t AS (SELECT user_id, epoch_us(ts) AS tsu FROM events), "
        "o AS (SELECT user_id, tsu, CASE WHEN LAG(tsu) OVER w IS NULL "
        f"OR tsu - LAG(tsu) OVER w > {g} THEN 1 ELSE 0 END AS brk "
        "FROM t WINDOW w AS (PARTITION BY user_id ORDER BY tsu)), "
        "s AS (SELECT user_id, tsu, SUM(brk) OVER "
        "(PARTITION BY user_id ORDER BY tsu ROWS UNBOUNDED PRECEDING) AS sid FROM o) "
        "SELECT user_id, MIN(tsu) AS session_start, MAX(tsu) AS session_end, "
        "COUNT(*) AS n FROM s GROUP BY user_id, sid"
    )


def tumbling_oracle() -> str:
    return (
        "SELECT user_id, CAST(floor(epoch_us(ts) / 86400000000) AS BIGINT) * 86400 AS window_start, "
        "COUNT(*) AS n, CAST(SUM(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_value "
        "FROM events GROUP BY 1, 2"
    )


def q_broadcast_join(sf_dir: str):
    """Broadcast small-side join (the J1 pattern generalized): orders
    enriched with customer nation, aggregated per nation — customer+nation
    ship once via ray.put; zero shuffle on the fact side."""
    import os

    import pyarrow.parquet as pq

    from ..stages.joins import broadcast_join

    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet")).to_pandas()
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet")).to_pandas()
    dim = cust.merge(nation, left_on="c_nationkey", right_on="n_nationkey")[
        ["c_custkey", "n_name"]
    ]
    orders = _read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    joined = broadcast_join(orders, dim, on="o_custkey", dim_on="c_custkey", take_cols=["n_name"])

    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.fold import dataset, sum_by_key

    def cents_partial(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.floor(pc.add(pc.multiply(t["o_totalprice"], 100), 0.5)), pa.int64())
        g = pa.table({"n_name": t["n_name"], "cents": cents}).group_by("n_name", use_threads=False)
        g = g.aggregate([([], "count_all"), ("cents", "sum")])
        return g.select(["n_name", "count_all", "cents_sum"]).rename_columns(schema.names)

    schema = pa.schema([("n_name", pa.string()), ("n_orders", pa.int64()), ("sum_cents", pa.int64())])
    return dataset(sum_by_key(joined, schema, ["n_name"], cents_partial))


def q_left_join_enrich(sf_dir: str):
    """LEFT OUTER enrichment through the partitioned hash join: every event
    keeps its row whether or not its user ever signed up; the signup dim is
    built distributed (per-batch distinct + groupby Max — never a driver
    pull) and unmatched rows surface as NULL marks. Exercises
    bucketed_hash_join(how='left') as a registered, twin-checked surface
    (the internal users: curate's drop filter, dedup label attach)."""
    import pyarrow as pa

    from ..stages.joins import bucketed_hash_join

    ev = _read_table(sf_dir, "events", columns=["event_type", "user_id"])

    def mark(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = t.to_pandas()
        df = df.loc[df["event_type"] == "signup", ["user_id"]].drop_duplicates()
        return pa.table({"user_id": pa.array(df["user_id"])})

    mark.__name__ = "signup_dim_combiner"
    # signup users scale with the corpus: bucketed dedup, not a
    # groupby(user).aggregate (BASELINE.md group-cardinality addendum)
    from ..stages.assembly import bucketed_distinct_values

    def add_flag(df):
        import pandas as pd

        return df.assign(_signed=pd.Series(1, index=df.index, dtype="int64"))

    add_flag.__name__ = "signed_flag"
    dim = bucketed_distinct_values(
        ev.map_batches(mark, batch_format="pyarrow"), "user_id"
    ).map_batches(add_flag, batch_format="pandas")
    joined = bucketed_hash_join(ev, dim, on="user_id", how="left")

    def flag(df):
        import pandas as pd

        return pd.DataFrame(
            {
                "event_type": df["event_type"],
                "_m": df["_signed"].notna().astype("int64"),
            }
        )

    flag.__name__ = "matched_flag"
    # low-cardinality dimension rollup: blockwise partials + bounded driver
    # sum (Ray's aggregate pays its sort on the INPUT rows, ~4s per 150k)
    from ..stages.assembly import small_group_rollup

    return small_group_rollup(
        joined.map_batches(flag, batch_format="pandas"),
        "event_type",
        [("n_events", None, "size"), ("n_signed_up", "_m", "sum")],
    )


def q_bucketed_join(sf_dir: str):
    """Explicit partitioned hash join (both sides 'large'): orders ⨝ customer
    on custkey, one tagged-union shuffle, per-bucket pandas merge."""
    from ..stages.joins import bucketed_hash_join

    orders = _read_table(sf_dir, "orders", columns=["o_custkey", "o_orderkey"])
    cust = _read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])

    orders = orders.map_batches(
        lambda t: t.rename_columns(["custkey", "o_orderkey"]), batch_format="pyarrow"
    )
    cust = cust.map_batches(
        lambda t: t.rename_columns(["custkey", "c_mktsegment"]), batch_format="pyarrow"
    )
    joined = bucketed_hash_join(orders, cust, on="custkey")
    # 5-segment rollup over the 150k-row join output: blockwise partials +
    # bounded driver sum (see small_group_rollup)
    from ..stages.assembly import small_group_rollup

    return small_group_rollup(joined, "c_mktsegment", [("n_orders", None, "size")])


def q_bloom_semi_join(sf_dir: str):
    """Bloom-prefiltered EXACT semi-join (the scale slot for key sets too
    large to broadcast, stages/joins.py:bloom_semi_join): orders placed by
    BUILDING-segment customers. The Bloom drops non-matching orders map-side;
    the bucketed survivor pass removes false positives, so the result is
    exactly the SQL IN-subquery."""
    from ..stages.joins import bloom_semi_join

    orders = _read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    keys = (
        _read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
        .filter(expr="c_mktsegment == 'BUILDING'")
        .select_columns(["c_custkey"])
        .map_batches(lambda t: t.rename_columns(["o_custkey"]), batch_format="pyarrow")
    )
    return bloom_semi_join(orders, keys, on="o_custkey").select_columns(["o_orderkey"])


def q_anti_join_orphans(sf_dir: str):
    """Referential-integrity orphan scan (EXACT anti-join,
    stages/joins.py:bloom_anti_join): orders NOT placed by a BUILDING-segment
    customer — the complement of bloom_semi_join's fixture, NOT EXISTS
    semantics (NULL keys kept). Bloom misses stream to the output with zero
    shuffle; only Bloom hits co-shuffle for the exact unmatched check."""
    from ..stages.joins import bloom_anti_join

    orders = _read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    keys = (
        _read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
        .filter(expr="c_mktsegment == 'BUILDING'")
        .select_columns(["c_custkey"])
        .map_batches(lambda t: t.rename_columns(["o_custkey"]), batch_format="pyarrow")
    )
    return bloom_anti_join(orders, keys, on="o_custkey").select_columns(["o_orderkey"])


def q_mod_sample(sf_dir: str):
    """Deterministic systematic 1-in-10 sample (the reference's 'sample
    events upstream' cost mitigation, README.md:62-64, as an engine
    operator): map-only, zero shuffle, rerun-stable."""
    from ..stages.sampling import mod_sample

    return mod_sample(
        _read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"]),
        "o_orderkey",
        modulus=10,
        keep_below=1,
    )


def q_stratified_sample(sf_dir: str):
    """First-10-per-stratum deterministic sample (balanced-per-class
    curation): per-batch combiner bounds the shuffle to blocks x strata x n."""
    from ..stages.sampling import stratified_sample

    ds = _read_table(sf_dir, "orders", columns=["o_orderpriority", "o_orderkey"])
    return stratified_sample(ds, key="o_orderpriority", order_col="o_orderkey", n_per_key=10)


def q_asof_join(sf_dir: str):
    """As-of join (SURVEY custom-operator slot): each purchase event picks up
    the LAST prior view of the same user — one tagged-union shuffle
    co-locating by hash(user_id), per-bucket vectorized merge_asof. Right
    side pre-deduped to one row per (user, ts) so ties are deterministic."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.assembly import bucketed_reduce_per_key
    from ..stages.joins import asof_join

    def with_tsu(t: pa.Table) -> pa.Table:
        return t.append_column("tsu", pc.cast(t["ts"], pa.int64()))

    ds = _read_events(sf_dir).map_batches(with_tsu, batch_format="pyarrow")
    left = ds.filter(expr="event_type == 'purchase'").select_columns(
        ["event_id", "user_id", "tsu"]
    )
    # distinct (user_id, tsu) scales with the corpus -> bucketed pandas
    # reduce, never groupby().aggregate() (CLAUDE.md reduction invariant)
    right = bucketed_reduce_per_key(
        ds.filter(expr="event_type == 'view'").select_columns(
            ["user_id", "tsu", "event_id"]
        ),
        ["user_id", "tsu"],
        [("view_event_id", "event_id", "max")],
    )
    joined = asof_join(left, right, on="tsu", by="user_id")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_id": df["event_id"].astype("int64"),
                "view_event_id": df["view_event_id"].fillna(-1).astype("int64"),
            }
        )

    return joined.map_batches(finish, batch_format="pandas")


def asof_oracle() -> str:
    return (
        "WITH l AS (SELECT event_id, user_id, epoch_us(ts) AS tsu FROM events "
        "WHERE event_type = 'purchase'), "
        "r AS (SELECT user_id, epoch_us(ts) AS tsu, MAX(event_id) AS view_event_id "
        "FROM events WHERE event_type = 'view' GROUP BY user_id, epoch_us(ts)) "
        "SELECT l.event_id AS event_id, COALESCE(r.view_event_id, -1) AS view_event_id "
        "FROM l ASOF LEFT JOIN r ON l.user_id = r.user_id AND l.tsu >= r.tsu"
    )


def q_range_join(sf_dir: str):
    """Range (point-in-interval) join: every event assigned to its session
    window (same user, tsu within [session_start, session_end]) — the
    sessionizer's intervals joined back to the point stream through ONE
    tagged-union shuffle."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.joins import range_join
    from ..stages.windows import session_window_agg

    def with_tsu(t: pa.Table) -> pa.Table:
        return t.append_column("tsu", pc.cast(t["ts"], pa.int64()))

    ds = _read_events(sf_dir).map_batches(with_tsu, batch_format="pyarrow")
    sessions = session_window_agg(_read_events(sf_dir), key="user_id", ts_col="ts", gap_s=1800)
    left = ds.select_columns(["event_id", "user_id", "tsu"])
    joined = range_join(
        left, sessions, on="user_id", point="tsu", lo="session_start", hi="session_end"
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_id": df["event_id"].astype("int64"),
                "session_start": df["session_start"].astype("int64"),
            }
        )

    return joined.map_batches(finish, batch_format="pandas")


def range_join_oracle(gap_s: int = 1800) -> str:
    return (
        f"WITH s AS ({session_oracle(gap_s)}), "
        "e AS (SELECT event_id, user_id, epoch_us(ts) AS tsu FROM events) "
        "SELECT e.event_id AS event_id, s.session_start AS session_start "
        "FROM e JOIN s ON e.user_id = s.user_id "
        "AND e.tsu BETWEEN s.session_start AND s.session_end"
    )


def q_near_dup_pairs(sf_dir: str):
    """EXACT all-pairs cosine similar-pairs over the embeddings table (the
    ground-truth baseline for embedding_dedup's LSH path; the synthetic
    embeddings are near-orthogonal, so the threshold sits where pairs exist).
    The operator's contract is the PAIR SET (boundary margin >= 1e-4 at both
    test scales, far above the ~1e-7 float32-vs-float64 cosine divergence
    between engines); the raw score stays internal because its 6th decimal
    is engine-specific."""
    import numpy as np
    import pandas as pd

    from ..stages.similarity import exact_cosine_pairs

    pairs = exact_cosine_pairs(_read_table(sf_dir, "embeddings"), threshold=0.3)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        keep = df["score"].to_numpy() >= 0.4
        return pd.DataFrame(
            {"a": df["a"].to_numpy()[keep], "b": df["b"].to_numpy()[keep]}
        )

    return pairs.map_batches(finish, batch_format="pandas")


def near_dup_pairs_oracle() -> str:
    # DOUBLE[] cast per the repo-wide cosine-twin rule (see
    # embedding_components_oracle)
    return (
        "SELECT e1.vec_id AS a, e2.vec_id AS b "
        "FROM embeddings e1 JOIN embeddings e2 ON e1.vec_id < e2.vec_id "
        "WHERE list_cosine_similarity("
        "list_transform(e1.embedding, x -> CAST(x AS DOUBLE)), "
        "list_transform(e2.embedding, x -> CAST(x AS DOUBLE))) >= 0.4"
    )


def q_jaccard_ngram_pairs(sf_dir: str):
    """EXACT word-3-gram Jaccard similar-pair join over the documents table —
    the hash-free ground-truth relation the minhash/simhash planes
    approximate. Distributed inverted shingle index (postings hash-bucketed
    by shingle), integer cross-multiplied threshold (no float channel)."""
    from ..stages.dedup import jaccard_allpairs_join

    return jaccard_allpairs_join(
        _read_table(sf_dir, "documents"), threshold_millis=500
    ).select_columns(["a", "b", "inter_sh", "union_sh"])


CONTAINMENT_MILLIS = 800


def q_containment_pairs(sf_dir: str):
    """Asymmetric near-dup: pairs where the smaller doc's shingle set is
    >= 80% contained in the other (quotes/excerpt detection) — the same
    distributed inverted shingle index as jaccard_ngram_pairs in
    mode='containment' (stages/dedup.py:jaccard_allpairs_join)."""
    from ..stages.dedup import jaccard_allpairs_join

    return jaccard_allpairs_join(
        _read_table(sf_dir, "documents"),
        threshold_millis=CONTAINMENT_MILLIS,
        mode="containment",
    )


def containment_pairs_oracle() -> str:
    return (
        "WITH d AS (SELECT doc_id, regexp_extract_all(lower(coalesce(text,'')),"
        " '[a-z0-9]+') AS w FROM documents), "
        "pos AS (SELECT doc_id, w, unnest(generate_series(1, greatest(len(w)-2, 0)))"
        " AS i FROM d), "
        "sh AS (SELECT DISTINCT doc_id, w[i] || ' ' || w[i+1] || ' ' || w[i+2] AS s"
        " FROM pos), "
        "sz AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id), "
        "inter AS (SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS c "
        "FROM sh x JOIN sh y ON x.s = y.s AND x.doc_id < y.doc_id GROUP BY 1, 2) "
        "SELECT a, b, c AS inter_sh, sa.n AS n_a, sb.n AS n_b "
        "FROM inter JOIN sz sa ON sa.doc_id = a JOIN sz sb ON sb.doc_id = b "
        f"WHERE c * 1000 >= {CONTAINMENT_MILLIS} * LEAST(sa.n, sb.n)"
    )


def jaccard_ngram_pairs_oracle() -> str:
    return (
        "WITH d AS (SELECT doc_id, regexp_extract_all(lower(coalesce(text,'')),"
        " '[a-z0-9]+') AS w FROM documents), "
        "pos AS (SELECT doc_id, w, unnest(generate_series(1, greatest(len(w)-2, 0)))"
        " AS i FROM d), "
        "sh AS (SELECT DISTINCT doc_id, w[i] || ' ' || w[i+1] || ' ' || w[i+2] AS s"
        " FROM pos), "
        "sz AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id), "
        "inter AS (SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS c "
        "FROM sh x JOIN sh y ON x.s = y.s AND x.doc_id < y.doc_id GROUP BY 1, 2) "
        "SELECT a, b, c AS inter_sh, (sa.n + sb.n - c) AS union_sh "
        "FROM inter JOIN sz sa ON sa.doc_id = a JOIN sz sb ON sb.doc_id = b "
        "WHERE c * 1000 >= 500 * (sa.n + sb.n - c)"
    )


def q_curate_docs(sf_dir: str):
    """End-to-end curation pipeline (quality -> exact dedup -> near-dup) over
    the documents table; the SQL-expressible stage counts are the compared
    output (near-dup count is approximate by design and unit-tested)."""
    import os

    import pandas as pd

    from ..sources.transcripts import sf_from_dir
    from .curate import curate_documents

    out = f"/tmp/graft_curate_out_sf{sf_from_dir(sf_dir):g}"
    s = curate_documents(os.path.join(sf_dir, "documents.parquet"), out)
    return pd.DataFrame(
        [
            {
                "n_input": int(s["n_input"]),
                "n_after_quality": int(s["n_after_quality"]),
                "n_after_exact": int(s["n_after_exact"]),
            }
        ]
    )


def curate_oracle() -> str:
    quality_sql = training_ops_oracles()["quality_scores"]
    return (
        f"WITH q AS ({quality_sql}) "
        "SELECT (SELECT COUNT(*) FROM documents) AS n_input, "
        "(SELECT COUNT(*) FROM q WHERE keep = 1) AS n_after_quality, "
        "(SELECT COUNT(DISTINCT d.text) FROM documents d "
        "JOIN q ON d.doc_id = q.doc_id WHERE q.keep = 1) AS n_after_exact"
    )


def _alternating_spec():
    import json as _json

    from ..spec import TRANSCRIPT_SPEC_JSON

    raw = _json.loads(_json.dumps(TRANSCRIPT_SPEC_JSON))
    raw["_table"]["order"]["alternate"] = ["user", "assistant"]
    return load_spec(raw, event_name="transcript")


def q_alternation_checks(sf_dir: str):
    """Role-alternation referential rule (J4): consecutive distinct turns must
    not repeat a role from the alternate set (turn role = MIN of the turn's
    non-null roles — deterministic under duplicate turn_idx)."""
    from ..stages.conversation import conversation_violations

    ds = _read_transcripts(sf_dir)
    return conversation_violations(ds, _alternating_spec()).select_columns(VCOLS)


def q_turn_text_digest(sf_dir: str):
    """Per-turn text digest under the stable (conv_id, turn_idx) ordering —
    the row-level evidence for 'per-turn text equality under stable turn
    ordering' (BASELINE.json input_hint): any divergence in text content or
    turn identity shows up as a hash mismatch."""
    import hashlib

    import pandas as pd

    def digest(batch: pd.DataFrame) -> pd.DataFrame:
        md5 = batch["text"].map(
            lambda t: hashlib.md5(t.encode()).hexdigest() if isinstance(t, str) else None
        )
        return pd.DataFrame(
            {"conv_id": batch["conv_id"], "turn_idx": batch["turn_idx"], "text_md5": md5}
        )

    return _read_transcripts(sf_dir).map_batches(digest, batch_format="pandas")


MIXTURE_RATES = {"en": 1.0, "de": 0.5, "es": 0.3, "fr": 0.2}
PACK_BUDGET = 50_000


def q_packing_bins(sf_dir: str):
    """Token-budget shard packing: each document assigned a training-shard
    bin by exclusive cumulative n_chars in doc_id order (bin = cum // budget)
    — a distributed ordered prefix sum (one range-partition sort, per-block
    offsets broadcast; stages/sampling.py:ordered_prefix_sum)."""
    from ..stages.sampling import packing_bins

    docs = _read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return packing_bins(docs, "doc_id", "n_chars", PACK_BUDGET)


SHUFFLE_SEED = 0x5EED20260818  # < 2^63: safe as a plain SQL integer literal


def q_shuffle_export(sf_dir: str):
    """Reproducible epoch shuffle for training export: every document gets
    its 0-based position under the seeded splitmix64(doc_id ^ seed) total
    order — key attach map-only, ONE range-partition sort, per-block offsets
    (stages/sampling.py:deterministic_shuffle). Positions (not just an
    order) make sharded export resumable (shard = pos // shard_size) and a
    new epoch is just a new seed."""
    from ..stages.sampling import deterministic_shuffle

    docs = _read_table(sf_dir, "documents", columns=["doc_id"])
    return deterministic_shuffle(docs, "doc_id", seed=SHUFFLE_SEED)


def shuffle_export_oracle(seed: int) -> str:
    """splitmix64(doc_id ^ seed) in SQL — 64-bit wrapping multiply via
    32-bit limbs in HUGEINT (a*b mod 2^64 = al*bl + ((ah*bl + al*bh) mod
    2^32)·2^32, every intermediate < 2^65), xorshifts on UBIGINT — then
    ROW_NUMBER under the key order. Bit-exact vs the numpy kernel
    (fuzzed in tests/test_round5_ops.py)."""
    m32 = (1 << 32) - 1
    m64 = 1 << 64

    def mulmod(c: int) -> str:
        ch, cl = c >> 32, c & m32
        return (
            f"CAST(((CAST(z & {m32} AS HUGEINT) * {cl}) + "
            f"((((CAST(z >> 32 AS HUGEINT) * {cl}) + "
            f"(CAST(z & {m32} AS HUGEINT) * {ch})) % 4294967296) * 4294967296)) "
            f"% {m64} AS UBIGINT)"
        )

    return (
        "WITH t0 AS (SELECT doc_id, CAST((CAST(xor(CAST(doc_id AS UBIGINT), "
        f"{seed}) AS HUGEINT) + {0x9E3779B97F4A7C15}) % {m64} AS UBIGINT) AS z "
        "FROM documents), "
        "t1 AS (SELECT doc_id, xor(z, z >> 30) AS z FROM t0), "
        f"t2 AS (SELECT doc_id, {mulmod(0xBF58476D1CE4E5B9)} AS z FROM t1), "
        "t3 AS (SELECT doc_id, xor(z, z >> 27) AS z FROM t2), "
        f"t4 AS (SELECT doc_id, {mulmod(0x94D049BB133111EB)} AS z FROM t3), "
        "t5 AS (SELECT doc_id, xor(z, z >> 31) AS z FROM t4) "
        "SELECT doc_id, ROW_NUMBER() OVER (ORDER BY z) - 1 AS shuffle_pos FROM t5"
    )


def q_mixture_sample(sf_dir: str):
    """Deterministic training-mixture sampling by language (en 100%, de 50%,
    es 30%, fr 20%, zh dropped) — systematic mod selection per group, map-only
    (stages/sampling.py:mixture_sample)."""
    from ..stages.sampling import mixture_sample

    docs = _read_table(sf_dir, "documents", columns=["doc_id", "lang"])
    return mixture_sample(docs, "lang", "doc_id", MIXTURE_RATES)


def q_group_topk(sf_dir: str):
    """Best-k-per-group balancing selector: the 5 longest documents per source
    (n_chars DESC, doc_id ASC) — combiner-bounded shuffle (stages/sampling.py)."""
    from ..stages.sampling import group_topk

    docs = _read_table(sf_dir, "documents", columns=["source", "n_chars", "doc_id"])
    return group_topk(docs, "source", "n_chars", "doc_id", 5).select_columns(
        ["source", "doc_id", "n_chars"]
    )


def q_global_rank(sf_dir: str):
    """Global distribution rank: per-document count of docs with n_chars ≤
    this one (cume-dist numerator) via broadcast cumulative value counts —
    corpus never shuffles (stages/sampling.py)."""
    from ..stages.sampling import global_rank

    docs = _read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return global_rank(docs, "n_chars")


OOV_VOCAB_K = 12


def q_oov_stats(sf_dir: str):
    """Vocabulary-coverage quality gate: per-doc token count + OOV-token count
    vs the corpus top-K terms by document frequency (K=12 here so the corpus'
    31-token vocabulary yields a real ~59% OOV share and the df tie-break
    order is genuinely exercised; integer-exact; stages/text.py:oov_stats —
    broadcast vocab, map-only corpus pass)."""
    from ..stages.text import oov_stats

    return oov_stats(_read_table(sf_dir, "documents", columns=["doc_id", "text"]), vocab_k=OOV_VOCAB_K)


def q_role_transitions(sf_dir: str):
    """Role-transition profile (protocol-drift signal): corpus counts of
    (from_role → to_role) adjacencies within conversations under the stable
    order (stages/assembly.py:role_transitions — bucketed partial counts,
    roles²-bounded final reduction)."""
    from ..stages.assembly import role_transitions

    return role_transitions(_read_transcripts(sf_dir))


def q_conv_segments(sf_dir: str):
    """Gap-based conversation segmentation: per-conversation count of >30min
    ts-gap segments (null-ts turns neither break nor extend; the
    transcripts-axis sessionizer — stages/assembly.py:conv_segments)."""
    from ..stages.assembly import conv_segments

    return conv_segments(_read_transcripts(sf_dir), gap_s=1800)


def q_turn_reindex(sf_dir: str):
    """Canonical turn-order repair: per-conversation event-time re-sort
    (ts NULLS LAST, deterministic tie-breaks) + fresh contiguous 0-based
    turn index — the normalize transform downstream of the ordering /
    uniqueness checks (stages/assembly.py:turn_reindex; text digested
    map-side so the payload never shuffles)."""
    from ..stages.assembly import turn_reindex

    return turn_reindex(_read_transcripts(sf_dir))


def clean_conversations(ds, spec):
    """The validation output FILTERS the corpus (the quarantine/clean split
    a training pipeline runs downstream of validation): conversations with
    ZERO violations of any kind (scalar + conversation checks), with their
    turn counts. Violating conv_ids come off the two violation streams
    map-side (prefix of the deterministic '{conv}:{turn}' event_id,
    per-batch deduped), feed the distributed-Bloom anti-join (clean misses
    stream to the output with zero shuffle), and the surviving turns reduce
    through the skew-safe bucketed counter."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.assembly import bucketed_count_per_key
    from ..stages.conversation import conversation_violations
    from ..stages.joins import bloom_anti_join
    from ..stages.validate import ValidateBatch

    viol_s = ds.map_batches(
        ValidateBatch(spec, log_valid=False),
        batch_format="pyarrow",
        batch_size=None,
        zero_copy_batch=True,
    ).select_columns(["event_id"])
    viol_c = conversation_violations(ds, spec).select_columns(["event_id"])

    def conv_keys(t: pa.Table) -> pa.Table:
        # event_id is '{conv_id}:{turn_idx}' and conv_id may itself contain
        # ':' — strip the LAST segment (rsplit, the repo convention:
        # stages/conversation.py), never split on the first colon
        conv = pc.replace_substring_regex(t["event_id"], pattern=":[^:]*$", replacement="")
        return pa.table({"conv_id": pc.unique(conv)})

    # materialize the key set (violating conv_ids — per-batch deduped, far
    # smaller than the corpus; object-store resident, spills if huge): the
    # anti-join consumes keys twice (Bloom build + exact-check join), and
    # without this each consumption would RE-RUN both validation passes
    keys = (
        viol_s.union(viol_c)
        .map_batches(conv_keys, batch_format="pyarrow")
        .materialize()
    )
    clean = bloom_anti_join(ds.select_columns(["conv_id"]), keys, on="conv_id")
    return bucketed_count_per_key(clean, "conv_id", "n_turns")


def q_clean_conversations(sf_dir: str):
    """Quarantine/clean split over the transcript corpus (see
    clean_conversations)."""
    return clean_conversations(_read_transcripts(sf_dir), transcript_spec())


def _snapshot_decorate(df):
    """Deterministic 'next snapshot' of the corpus (IDENTICAL derivation in
    the SQL twin): turns with turn_idx%7==3 deleted, text of surviving
    turn_idx%11==5 turns rewritten (coalesce(text,'') || ' v2'), and every
    conversation whose id ends in '7' copied verbatim under conv_id||'_new'.
    Map-only, so the synthetic second snapshot streams like a real one."""
    import pandas as pd

    new = df[df["conv_id"].str.endswith("7").fillna(False).astype(bool)].copy()
    new["conv_id"] = new["conv_id"] + "_new"
    base = df[(df["turn_idx"] % 7) != 3].copy()
    m = (base["turn_idx"] % 11) == 5
    base.loc[m, "text"] = base.loc[m, "text"].fillna("") + " v2"
    return pd.concat([base, new], ignore_index=True)


def q_changed_conversations(sf_dir: str):
    """Incremental-revalidation snapshot diff: corpus vs a deterministically
    decorated 'next snapshot' → (conv_id, status in added/removed/changed/
    same) at conversation granularity (stages/assembly.py:
    changed_conversations — per-side full-row fingerprint rollup, then one
    ~50 B/conversation reconciliation join)."""
    from ..stages.assembly import changed_conversations

    left = _read_transcripts(sf_dir)
    right = _read_transcripts(sf_dir).map_batches(
        _snapshot_decorate, batch_format="pandas"
    )
    return changed_conversations(left, right)


def q_response_variants(sf_dir: str):
    """DPO-precursor mining: user prompts with >= 2 DISTINCT assistant
    responses corpus-wide (stages/assembly.py:response_variants — turn_pairs
    adjacency + skew-safe distinct-count reduction)."""
    from ..stages.assembly import response_variants

    return response_variants(_read_transcripts(sf_dir))


def q_cross_conv_dups(sf_dir: str):
    """Template/canned-response detection: texts appearing verbatim in >= 2
    DISTINCT conversations (stages/assembly.py:cross_conv_duplicate_texts) —
    md5-projected shuffle, per-batch distinct-pair combiner, one single-key
    groupby."""
    from ..stages.assembly import cross_conv_duplicate_texts

    return cross_conv_duplicate_texts(_read_transcripts(sf_dir))


def q_conversation_stats(sf_dir: str):
    """Per-conversation curation features: role turn counts, tool calls,
    wall-clock duration — one single-key groupby with additive aggregates
    (stages/assembly.py:conversation_stats)."""
    from ..stages.assembly import conversation_stats

    return conversation_stats(_read_transcripts(sf_dir))


def q_embedding_checks(sf_dir: str):
    """Vector-column validation (the embedding analog of the scalar
    validator): per-vector dimension, NaN count and zero-norm flag — the
    gates an embedding pipeline needs before ANN/dedup
    (stages/similarity.py:vector_checks, map-only)."""
    from ..stages.similarity import vector_checks

    return vector_checks(_read_table(sf_dir, "embeddings"))


def q_conversation_doc(sf_dir: str):
    """Transcript → training-document assembly: each conversation rendered as
    ordered 'role|text' lines and rolled up to (conv_id, n_turns, doc_md5) —
    the 'make training docs from raw transcripts' curation step. One bucketed
    shuffle, vectorized per-bucket kernel (stages/assembly.py)."""
    from ..stages.assembly import conversation_docs

    return conversation_docs(_read_transcripts(sf_dir))


def q_turn_pairs(sf_dir: str):
    """Adjacent user→assistant turn-pair mining per conversation under the
    stable turn ordering (SFT prompt/response extraction). Emits
    (conv_id, prompt_turn_idx, response_turn_idx, prompt_md5, response_md5)."""
    from ..stages.assembly import turn_pairs

    return turn_pairs(_read_transcripts(sf_dir))


def q_worst_offenders(sf_dir: str):
    """Top (field, error_type) pairs by violation count (report view O5;
    rows-only: ties make LIMIT ordering engine-specific)."""
    from ..pipelines.report import worst_offenders
    from ..stages.validate import ValidateBatch

    ds = _read_transcripts(sf_dir)
    log = ds.map_batches(
        ValidateBatch(transcript_spec(), log_valid=False),
        batch_format="pyarrow",
        batch_size=None,  # whole-block batches: the validator is fully vectorized
        zero_copy_batch=True,
    )
    return worst_offenders(log, k=20)


def q_unique_event_names(sf_dir: str):
    """Distinct event names in a violation log (A4 — the report's filter
    widget, reference validation_report.py:85), over the dispatch corpus so
    the distinct set is non-trivial (one name per event_type + unmapped)."""
    import pandas as pd

    from ..pipelines.report import unique_event_names
    from ..stages.validate import ValidateDispatchBatch

    specs = {
        name: load_spec(raw, event_name=name) for name, raw in DISPATCH_SPECS_JSON.items()
    }
    log = _read_events(sf_dir).map_batches(
        ValidateDispatchBatch(
            specs, dispatch_col="event_type", id_cols=("event_id",), log_valid=False
        ),
        batch_format="pyarrow",
        batch_size=None,
        zero_copy_batch=True,
    )
    return pd.DataFrame({"event_name": unique_event_names(log)})


def q_valid_fields(sf_dir: str):
    """Per-field valid rows (M9 — logValidField, reference
    loggingHelpers.js:33-46, gated by LOG_VALID_FIELDS cloudHelpers.js:10):
    one status='valid' row per (turn, field) whose type check passed, with
    value = JSON.stringify(rule.type)."""
    from ..stages.validate import ValidateBatch

    ds = _read_transcripts(sf_dir)
    return (
        ds.map_batches(
            ValidateBatch(transcript_spec(), log_valid=False, log_valid_fields=True),
            batch_format="pyarrow",
            batch_size=None,  # whole-block batches: the validator is fully vectorized
            zero_copy_batch=True,
        )
        .filter(expr="status == 'valid'")
        .select_columns(["event_id", "field", "value", "status", "event_name"])
    )


def q_multimodal_decode(sf_dir: str):
    """Multimodal decode: deterministic corpus of REAL PNG payloads through
    the actor-pool image decode stage with allow_fake=False — every row is a
    genuine stdlib PNG decode (struct+zlib), no stub involved. Value-checked:
    the oracle reads the generation-time ground-truth parquet (dims + raw
    RGB pixel-sum checksum recorded BEFORE encoding), so a decode that
    doesn't round-trip the encoder exactly hash-mismatches."""
    import ray.data as rd

    from ..stages.multimodal import decode_images, ensure_media_real

    media_path = ensure_media_real(96)[0]
    media = rd.read_parquet(media_path)
    return decode_images(media, feature_dim=16, concurrency=2, allow_fake=False).select_columns(
        ["media_id", "width", "height", "pix_sum"]
    )


def q_multimodal_audio(sf_dir: str):
    """Audio feature-extract stage over REAL 16-bit PCM WAV payloads with
    allow_fake=False — value-checked like the image decode: the oracle reads
    generation-time truth (rate, sample count, raw int16 sample sum; the
    engine's samp_sum is the same quantity recovered from the normalized
    float samples, exact because /32768 is a power-of-two scale)."""
    import ray.data as rd

    from ..stages.multimodal import ensure_media_real, extract_audio

    media_path = ensure_media_real(96)[0]
    media = rd.read_parquet(media_path)
    return extract_audio(media, feature_dim=8, concurrency=2, allow_fake=False).select_columns(
        ["media_id", "sample_rate", "n_samples", "samp_sum"]
    )


def q_multimodal_resize(sf_dir: str):
    """Two-stage image chain: real PNG decode -> shared nearest-neighbor
    resample (multimodal.nn_resize — the identical index map generates the
    ground truth) -> real PNG re-encode -> real decode; the oracle
    value-checks dims + resampled pixel sum, so any drift anywhere in the
    decode/resample/encode chain hash-mismatches."""
    import ray.data as rd

    from ..stages.multimodal import (
        RESIZE_TRUTH_DIMS,
        DecodeImage,
        ResizeImage,
        ensure_media_real,
    )

    rw, rh = RESIZE_TRUTH_DIMS
    media_path = ensure_media_real(96)[0]
    media = rd.read_parquet(media_path)
    # one actor per pool: TWO chained pools at concurrency=2 would reserve
    # 4 CPUs and starve the read tasks in a 4-CPU session (pool sizing must
    # leave CPUs for the non-actor stages — the actor-pool sizing rule)
    resized = media.filter(expr="kind == 'image'").map_batches(
        ResizeImage,
        fn_constructor_kwargs={"width": rw, "height": rh, "allow_fake": False},
        batch_format="pyarrow",
        batch_size=32,
        concurrency=1,
        num_cpus=1,
    )
    return resized.map_batches(
        DecodeImage,
        fn_constructor_kwargs={"feature_dim": 8, "allow_fake": False},
        batch_format="pyarrow",
        batch_size=32,
        concurrency=1,
        num_cpus=1,
    ).select_columns(["media_id", "width", "height", "pix_sum"])


def q_multimodal_frames(sf_dir: str):
    """Video frame-sampling over REAL mono YUV4MPEG2 streams with
    allow_fake=False — the stdlib y4m parser decodes every frame, the stage
    samples n_frames evenly-spaced source frames ((j*(nf-1))//(k-1), the
    same integer floor division the oracle computes), and each sampled
    frame's luma pixel-sum is value-checked against generation truth."""
    import ray.data as rd

    from ..stages.multimodal import ensure_media_real, sample_frames

    media_path = ensure_media_real(96)[0]
    media = rd.read_parquet(media_path)
    return sample_frames(media, n_frames=4, concurrency=2, allow_fake=False).select_columns(
        ["media_id", "frame_idx", "src_frame", "width", "height", "luma_sum"]
    )


def _ann_exact_sql(ids: str) -> str:
    return (
        # float64 throughout (list_cosine_similarity on FLOAT lists runs in
        # float32; the engine computes in float64 — same fix as knn_graph)
        "WITH d AS (SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS e FROM embeddings), "
        f"q AS (SELECT vec_id AS query_id, e AS qe FROM d WHERE vec_id IN ({ids})), "
        "s AS (SELECT q.query_id, e.vec_id, list_cosine_similarity(q.qe, e.e) AS sim "
        "FROM q CROSS JOIN d e), "
        "r AS (SELECT query_id, vec_id, sim, ROW_NUMBER() OVER "
        "(PARTITION BY query_id ORDER BY sim DESC, vec_id) AS rank FROM s) "
        f"SELECT query_id, vec_id, rank, CAST(floor(sim * 1000000 + 0.5) AS BIGINT) AS score_micro "
        f"FROM r WHERE rank <= {ANN_K}"
    )


def training_ops_oracles() -> dict[str, str]:
    from ..stages.text import LANG_STOPWORDS

    stop_list = ", ".join(f"'{w}'" for w in sorted(LANG_STOPWORDS["en"]))
    ids = ", ".join(str(i) for i in ANN_QUERY_IDS)

    quality_sql = (
        "WITH t AS (SELECT doc_id, coalesce(text, '') AS txt FROM documents), "
        "s AS (SELECT doc_id, length(txt) AS n_chars, "
        "regexp_extract_all(lower(txt), '[a-z0-9]+') AS toks, "
        "length(txt) - length(regexp_replace(txt, '[^\\w\\s]', '', 'g')) AS n_punct FROM t), "
        "r AS (SELECT doc_id, n_chars, len(toks) AS n_tokens, "
        "CAST(coalesce(list_sum(list_transform(toks, x -> length(x))), 0) AS DOUBLE) / GREATEST(len(toks), 1) AS mean_tok, "
        "CAST(n_punct AS DOUBLE) / GREATEST(n_chars, 1) AS punct_ratio, "
        f"CAST(len(list_filter(toks, x -> x IN ({stop_list}))) AS DOUBLE) / GREATEST(len(toks), 1) AS stop_ratio "
        "FROM s) "
        "SELECT doc_id, n_chars, n_tokens, "
        "CAST(floor(mean_tok * 1000000 + 0.5) AS BIGINT) AS mean_token_len_micro, "
        "CAST(floor(punct_ratio * 1000000 + 0.5) AS BIGINT) AS punct_ratio_micro, "
        "CAST(floor(stop_ratio * 1000000 + 0.5) AS BIGINT) AS stop_ratio_micro, "
        "CAST(n_chars >= 50 AND n_chars <= 100000 AND stop_ratio >= 0.05 AS BIGINT) AS keep "
        "FROM r"
    )

    lang_lists = {
        lang: ", ".join(f"'{w}'" for w in sorted(words))
        for lang, words in LANG_STOPWORDS.items()
    }
    score_cols = ", ".join(
        f"CAST(len(list_filter(toks, x -> x IN ({lang_lists[lang]}))) AS DOUBLE) / GREATEST(len(toks), 1) AS s_{lang}"
        for lang in sorted(lang_lists)
    )
    lang_sql = (
        "WITH t AS (SELECT doc_id, regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+') AS toks FROM documents), "
        f"s AS (SELECT doc_id, len(toks) AS n, {score_cols} FROM t), "
        "b AS (SELECT doc_id, n, GREATEST(s_de, s_en, s_es, s_fr) AS best, s_de, s_en, s_es, s_fr FROM s) "
        "SELECT doc_id, "
        "CASE WHEN n = 0 OR best < 0.03 THEN 'unknown' "
        "WHEN s_fr = best THEN 'fr' WHEN s_es = best THEN 'es' "
        "WHEN s_en = best THEN 'en' ELSE 'de' END AS lang_pred, "
        "CAST(floor((CASE WHEN n = 0 THEN 0 ELSE best END) * 1000000 + 0.5) AS BIGINT) AS lang_score_micro "
        "FROM b"
    )

    return {
        "quality_scores": quality_sql,
        "lang_id": lang_sql,
        "dedup_exact": "SELECT MIN(doc_id) AS doc_id FROM documents GROUP BY text",
        "ann_topk": _ann_exact_sql(ids),
        # full-probe IVF is exact by construction -> shares the exact twin
        "ann_topk_ivf": _ann_exact_sql(ids),
        "text_stats": (
            # coalesce(text,'') mirrors the engine's fillna('') — a NULL text
            # row must report 0s, not NULLs (same convention as every other
            # documents oracle in this module)
            "SELECT doc_id, length(coalesce(text, '')) AS n_chars, "
            "len(regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+')) AS n_tokens, "
            "length(coalesce(text, '')) - length(regexp_replace(coalesce(text, ''), '[^\\w\\s]', '', 'g')) AS n_punct, "
            f"len(list_filter(regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+'), x -> x IN ({stop_list}))) AS n_stop "
            "FROM documents"
        ),
    }


# ---------------------------------------------------------------------------
# Oracle SQL
# ---------------------------------------------------------------------------


def _transcripts_table_sql(sf: float) -> str:
    return f"read_parquet('{transcripts_glob(sf)}')"


def transcript_oracles(sf: float = 0.01) -> dict[str, str]:
    """Oracle SQL for the transcript queries at the driver's scale factor.
    Generating the corpus here guarantees the files exist before DuckDB runs."""
    ensure_transcripts(sf)
    spec = transcript_spec()
    kinds = column_kinds_for_transcripts()
    t = _transcripts_table_sql(sf)
    scalar = scalar_violations_sql(spec, t, kinds)
    scalar_dated = scalar_violations_sql(spec, t, kinds, date_col="ts")
    valid_cond = valid_rows_condition(spec, kinds)
    conv = conversation_violations_sql(spec, t)
    eid = "conv_id || ':' || CAST(turn_idx AS VARCHAR)"

    stats_branches = []
    for c in ["conv_id", "turn_idx", "role", "text", "tool"]:
        stats_branches.append(
            f"SELECT '{c}' AS col, COUNT(*) AS n_count, "
            f"COUNT(*) - COUNT({c}) AS n_nulls, "
            f"CAST(MIN({c}) AS VARCHAR) AS min_str, "
            f"CAST(MAX({c}) AS VARCHAR) AS max_str FROM {t}"
        )

    out = {
        "validate_scalar": scalar,
        "valid_turns": (
            f"SELECT {eid} AS event_id, 'transcript' AS event_name, "
            f"'valid' AS status FROM {t} WHERE {valid_cond}"
        ),
        "conversation_checks": conv,
        "conversation_checks_salted": conv,
        "valid_fields": valid_fields_sql(spec, t, kinds),
        "alternation_checks": conversation_violations_sql(_alternating_spec(), t),
        "failures_by_day": (
            f"WITH viol AS ({scalar_dated}) "
            "SELECT date_utc, field, COUNT(*) AS n_failures "
            "FROM viol GROUP BY date_utc, field"
        ),
        "error_rate": (
            f"WITH viol AS ({scalar_dated}), "
            f"valid_rows AS (SELECT {eid} AS event_id, COALESCE(strftime(ts, '%Y-%m-%d'), '(null)') AS date_utc "
            f"FROM {t} WHERE {valid_cond}), "
            "log AS (SELECT event_id, date_utc FROM viol "
            "UNION ALL SELECT event_id, date_utc FROM valid_rows), "
            "tot AS (SELECT date_utc, COUNT(DISTINCT event_id) AS n_events FROM log GROUP BY date_utc), "
            "err AS (SELECT date_utc, COUNT(DISTINCT event_id) AS n_error_events FROM viol GROUP BY date_utc) "
            "SELECT tot.date_utc AS date_utc, tot.n_events AS n_events, "
            "COALESCE(err.n_error_events, 0) AS n_error_events "
            "FROM tot LEFT JOIN err ON tot.date_utc = err.date_utc"
        ),
        "column_stats": "\nUNION ALL\n".join(stats_branches),
        "distinct_conv_exact": (
            f"SELECT 'conv_id' AS col, COUNT(DISTINCT conv_id) AS n_distinct FROM {t}"
        ),
        "quantiles_exact": "\nUNION ALL\n".join(
            f"SELECT {int(q * 1000)} AS q_permille, "
            f"CAST(quantile_disc(turn_idx, {q}) AS BIGINT) AS value FROM {t}"
            for q in (0.5, 0.9, 0.99)
        ),
        "worst_offenders": (
            f"WITH viol AS ({scalar}) SELECT field, error_type, COUNT(*) AS n "
            "FROM viol GROUP BY field, error_type "
            "ORDER BY n DESC, field, error_type LIMIT 20"
        ),
        "conversation_doc": (
            "SELECT conv_id, COUNT(*) AS n_turns, "
            "md5(string_agg(coalesce(role, '') || '|' || coalesce(text, ''), chr(10) "
            "ORDER BY turn_idx, coalesce(text, ''), coalesce(role, ''))) AS doc_md5 "
            f"FROM {t} GROUP BY conv_id"
        ),
        "role_transitions": (
            "WITH o AS (SELECT conv_id, role, lead(role) OVER (PARTITION BY conv_id "
            "ORDER BY turn_idx, coalesce(text, ''), coalesce(role, '')) AS nxt "
            f"FROM {t}) "
            "SELECT role AS from_role, nxt AS to_role, COUNT(*) AS n FROM o "
            "WHERE role IS NOT NULL AND nxt IS NOT NULL GROUP BY role, nxt"
        ),
        "conv_segments": (
            f"WITH v AS (SELECT conv_id, turn_idx, text, role, epoch_us(ts) AS us "
            f"FROM {t} WHERE ts IS NOT NULL), "
            "o AS (SELECT conv_id, us, lag(us) OVER (PARTITION BY conv_id "
            "ORDER BY turn_idx, coalesce(text, ''), coalesce(role, ''), us) AS prev FROM v), "
            "segs AS (SELECT conv_id, SUM(CASE WHEN prev IS NULL OR us - prev > 1800000000 "
            "THEN 1 ELSE 0 END) AS n_segments FROM o GROUP BY conv_id) "
            # CAST: DuckDB SUM() is HUGEINT -> float64 in pandas, a forbidden
            # float channel in a compared column
            f"SELECT c.conv_id, CAST(COALESCE(s.n_segments, 0) AS BIGINT) AS n_segments "
            f"FROM (SELECT DISTINCT conv_id FROM {t}) c "
            "LEFT JOIN segs s ON s.conv_id = c.conv_id"
        ),
        "cross_conv_dups": (
            "SELECT md5(text) AS text_md5, COUNT(DISTINCT conv_id) AS n_convs "
            f"FROM {t} WHERE text IS NOT NULL "
            "GROUP BY md5(text) HAVING COUNT(DISTINCT conv_id) >= 2"
        ),
        "conversation_stats": (
            "SELECT conv_id, COUNT(*) AS n_turns, "
            "CAST(SUM(CASE WHEN role = 'user' THEN 1 ELSE 0 END) AS BIGINT) AS n_user, "
            "CAST(SUM(CASE WHEN role = 'assistant' THEN 1 ELSE 0 END) AS BIGINT) AS n_assistant, "
            "CAST(SUM(CASE WHEN tool IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_tool, "
            "MAX(epoch_us(ts)) - MIN(epoch_us(ts)) AS duration_us "
            f"FROM {t} GROUP BY conv_id"
        ),
        "turn_pairs": (
            "WITH o AS (SELECT conv_id, turn_idx, role, text, "
            "lead(role) OVER w AS next_role, lead(text) OVER w AS next_text, "
            "lead(turn_idx) OVER w AS next_turn "
            f"FROM {t} WINDOW w AS (PARTITION BY conv_id "
            "ORDER BY turn_idx, coalesce(text, ''), coalesce(role, ''))) "
            "SELECT conv_id, CAST(turn_idx AS BIGINT) AS prompt_turn_idx, "
            "CAST(next_turn AS BIGINT) AS response_turn_idx, "
            "md5(text) AS prompt_md5, md5(next_text) AS response_md5 "
            "FROM o WHERE role = 'user' AND next_role = 'assistant' "
            "AND text IS NOT NULL AND next_text IS NOT NULL"
        ),
        "response_variants": (
            "WITH o AS (SELECT conv_id, role, text, "
            "lead(role) OVER w AS next_role, lead(text) OVER w AS next_text "
            f"FROM {t} WINDOW w AS (PARTITION BY conv_id "
            "ORDER BY turn_idx, coalesce(text, ''), coalesce(role, ''))), "
            "p AS (SELECT md5(text) AS prompt_md5, md5(next_text) AS response_md5 "
            "FROM o WHERE role = 'user' AND next_role = 'assistant' "
            "AND text IS NOT NULL AND next_text IS NOT NULL) "
            "SELECT prompt_md5, COUNT(DISTINCT response_md5) AS n_variants "
            "FROM p GROUP BY prompt_md5 HAVING COUNT(DISTINCT response_md5) >= 2"
        ),
        "rolling_turn_chars": (
            # same stable total order as turn_pairs; CAST: SUM() is HUGEINT
            "SELECT conv_id, turn_idx, "
            "CAST(length(coalesce(text, '')) AS BIGINT) AS n_chars, "
            "CAST(SUM(length(coalesce(text, ''))) OVER ("
            "PARTITION BY conv_id ORDER BY turn_idx, coalesce(text, ''), "
            "coalesce(role, '') ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) "
            f"AS BIGINT) AS roll_chars FROM {t}"
        ),
        "drift_roles": drift_roles_oracle(t),
    }
    out["len_drift_days"] = len_drift_days_oracle(t)
    out["transition_drift"] = transition_drift_oracle(out["role_transitions"])
    return out


def events_oracles() -> dict[str, str]:
    spec = events_spec()
    scalar = scalar_violations_sql(
        spec, "events", EVENTS_COL_KINDS, key_cols=("event_id",)
    )
    scalar_dated = scalar_violations_sql(
        spec, "events", EVENTS_COL_KINDS, key_cols=("event_id",), date_col="ts"
    )
    valid_cond = valid_rows_condition(spec, EVENTS_COL_KINDS)
    return {
        "validate_events": scalar,
        "events_failures_by_day": (
            f"WITH viol AS ({scalar_dated}) "
            "SELECT date_utc, field, COUNT(*) AS n_failures "
            "FROM viol GROUP BY date_utc, field"
        ),
        "events_error_rate": (
            f"WITH viol AS ({scalar_dated}), "
            "valid_rows AS (SELECT CAST(event_id AS VARCHAR) AS event_id, "
            f"COALESCE(strftime(ts, '%Y-%m-%d'), '(null)') AS date_utc FROM events WHERE {valid_cond}), "
            "log AS (SELECT event_id, date_utc FROM viol "
            "UNION ALL SELECT event_id, date_utc FROM valid_rows), "
            "tot AS (SELECT date_utc, COUNT(DISTINCT event_id) AS n_events FROM log GROUP BY date_utc), "
            "err AS (SELECT date_utc, COUNT(DISTINCT event_id) AS n_error_events FROM viol GROUP BY date_utc) "
            "SELECT tot.date_utc AS date_utc, tot.n_events AS n_events, "
            "COALESCE(err.n_error_events, 0) AS n_error_events "
            "FROM tot LEFT JOIN err ON tot.date_utc = err.date_utc"
        ),
        "drift_days": drift_days_oracle(),
        "wow_drift": wow_drift_oracle(),
        "benford_value": benford_value_oracle(),
        "distinct_users_by_day": (
            "SELECT COALESCE(strftime(ts, '%Y-%m-%d'), '(null)') AS date_utc, "
            "COUNT(DISTINCT user_id) AS n_users FROM events "
            "WHERE user_id IS NOT NULL GROUP BY 1"
        ),
    }


def q_retention_cohorts(sf_dir: str):
    """Cohort retention triangle: per (first-active-day cohort, day offset),
    distinct returning users (stages/windows.py:retention_cohorts — one
    bucketed user shuffle, days²-bounded driver fold)."""
    from ..stages.windows import retention_cohorts

    return retention_cohorts(_read_table(sf_dir, "events"))


def q_pivot_event_types(sf_dir: str):
    """Long→wide pivot: per UTC day, one count column per event type plus an
    other/NULL catch-all (stages/reshape.py:pivot_counts — vectorized one-hot
    with a per-batch combiner, one single-key groupby)."""
    import pyarrow as pa

    from ..stages.reshape import pivot_counts
    from ..stages.windows import utc_day

    ev = _read_table(sf_dir, "events", columns=["ts", "event_type"])

    def add_date(t: pa.Table) -> pa.Table:
        return pa.table({"date_utc": utc_day(t["ts"]), "event_type": t["event_type"]})

    add_date.__name__ = "add_date_utc"
    return pivot_counts(
        ev.map_batches(add_date, batch_format="pyarrow"),
        row_col="date_utc",
        col_col="event_type",
        categories=["click", "view", "purchase", "signup"],
    )


def _independence_chi_parts(df, a_col: str, b_col: str, n_col: str = "n_obs"):
    """Shared bit-exact chi kernel — see stages/sketches.py:
    independence_chi_parts (moved there so the runner's --drift mode can
    reuse it without importing the query registry)."""
    from ..stages.sketches import independence_chi_parts

    return independence_chi_parts(df, a_col, b_col, n_col)


_CHI_SQL = (
    "CAST(FLOOR((((CAST({n} AS DOUBLE) - {exp}) * (CAST({n} AS DOUBLE) - {exp})) "
    "/ {exp}) * 1000000 + 0.5) AS BIGINT)"
)


def q_drift_days(sf_dir: str):
    """Temporal categorical drift: per (UTC day, event_type) cell, observed
    count + chi-square contribution against the corpus-wide profile
    (expected under day×type independence = n_day * n_type / n_total — a
    day whose type mix matches the corpus scores ≈0; a drifting day's cells
    spike). The distributed piece is ONE bucketed count over a rendered
    day|type key (cell cardinality = days × types, bounded — the driver
    pull is the cell table, never the corpus); the chi parts are computed
    driver-side with `_independence_chi_parts` and compared bit-exactly."""
    return (
        _independence_chi_parts(_day_type_cells(sf_dir), "date_utc", "event_type")
        .sort_values(["date_utc", "event_type"])
        .reset_index(drop=True)
    )


def drift_days_oracle() -> str:
    chi = _CHI_SQL.format(n="c.n_obs", exp="e.exp")
    return (
        "WITH c AS (SELECT COALESCE(strftime(ts, '%Y-%m-%d'), '(null)') AS date_utc, "
        "COALESCE(event_type, '(null)') AS event_type, COUNT(*) AS n_obs "
        "FROM events GROUP BY 1, 2), "
        "tot AS (SELECT SUM(n_obs) AS n FROM c), "
        "nd AS (SELECT date_utc, SUM(n_obs) AS n_day FROM c GROUP BY 1), "
        "nt AS (SELECT event_type, SUM(n_obs) AS n_type FROM c GROUP BY 1), "
        "e AS (SELECT c.date_utc, c.event_type, c.n_obs, "
        "CAST(nd.n_day * nt.n_type AS DOUBLE) / CAST(tot.n AS DOUBLE) AS exp "
        "FROM c JOIN nd USING (date_utc) JOIN nt USING (event_type) CROSS JOIN tot) "
        "SELECT e.date_utc, e.event_type, CAST(c.n_obs AS BIGINT) AS n_obs, "
        f"{chi} AS chi_part_micro "
        "FROM e JOIN c USING (date_utc, event_type)"
    )


def q_len_drift_days(sf_dir: str):
    """Temporal NUMERIC drift via fixed integer bins: per (UTC day,
    text-length bin) cell over the transcript corpus, observed count +
    chi-square contribution vs the corpus-wide length profile. Binning is
    ALL-INTEGER map-side (bin = min(len // 32, 15); NULL text → -1), so the
    only float ops are the shared chi kernel — same bit-exact compare as
    drift_days (stages/sketches.py:len_drift_days)."""
    from ..stages.sketches import len_drift_days

    return len_drift_days(_read_transcripts(sf_dir))


def len_drift_days_oracle(t: str) -> str:
    from ..stages.sketches import LEN_BIN_MAX, LEN_BIN_WIDTH

    chi = _CHI_SQL.format(n="c.n_obs", exp="e.exp")
    return (
        "WITH c AS (SELECT COALESCE(strftime(ts, '%Y-%m-%d'), '(null)') AS date_utc, "
        "CASE WHEN text IS NULL THEN -1 "
        f"ELSE LEAST(length(text) // {LEN_BIN_WIDTH}, {LEN_BIN_MAX}) END AS len_bin, "
        f"COUNT(*) AS n_obs FROM {t} GROUP BY 1, 2), "
        "tot AS (SELECT SUM(n_obs) AS n FROM c), "
        "nd AS (SELECT date_utc, SUM(n_obs) AS n_day FROM c GROUP BY 1), "
        "nb AS (SELECT len_bin, SUM(n_obs) AS n_bin FROM c GROUP BY 1), "
        "e AS (SELECT c.date_utc, c.len_bin, c.n_obs, "
        "CAST(nd.n_day * nb.n_bin AS DOUBLE) / CAST(tot.n AS DOUBLE) AS exp "
        "FROM c JOIN nd USING (date_utc) JOIN nb USING (len_bin) CROSS JOIN tot) "
        "SELECT e.date_utc, CAST(e.len_bin AS BIGINT) AS len_bin, "
        f"CAST(c.n_obs AS BIGINT) AS n_obs, {chi} AS chi_part_micro "
        "FROM e JOIN c USING (date_utc, len_bin)"
    )


def q_transition_drift(sf_dir: str):
    """Role-transition independence drift (alternation-health score): per
    (from_role, to_role) adjacency cell, observed count + chi-square
    contribution vs the marginal-independence expectation (n_from * n_to /
    n_total). A healthy alternating protocol makes user→assistant cells
    spike far above independence while user→user collapses — a drop in
    those chi parts is the protocol-drift alarm. Composes the
    `role_transitions` distributed profile (roles²-bounded) with the shared
    bit-exact chi kernel (stages/sketches.py:transition_drift)."""
    from ..stages.sketches import transition_drift

    return transition_drift(_read_transcripts(sf_dir))


def transition_drift_oracle(role_transitions_sql: str) -> str:
    chi = _CHI_SQL.format(n="c.n_obs", exp="e.exp")
    return (
        f"WITH c AS (SELECT from_role, to_role, n AS n_obs FROM ({role_transitions_sql})), "
        "tot AS (SELECT SUM(n_obs) AS n FROM c), "
        "nf AS (SELECT from_role, SUM(n_obs) AS n_from FROM c GROUP BY 1), "
        "nt AS (SELECT to_role, SUM(n_obs) AS n_to FROM c GROUP BY 1), "
        "e AS (SELECT c.from_role, c.to_role, c.n_obs, "
        "CAST(nf.n_from * nt.n_to AS DOUBLE) / CAST(tot.n AS DOUBLE) AS exp "
        "FROM c JOIN nf USING (from_role) JOIN nt USING (to_role) CROSS JOIN tot) "
        "SELECT e.from_role, e.to_role, CAST(c.n_obs AS BIGINT) AS n_obs, "
        f"{chi} AS chi_part_micro "
        "FROM e JOIN c USING (from_role, to_role)"
    )


def _events_day_user_pairs(sf_dir: str):
    """(date_utc, user_id) pair Dataset for the per-day distinct-user
    queries — date rendered map-side, NULL user_id dropped on the engine
    side to mirror COUNT(DISTINCT user_id)'s NULL semantics (the day itself
    would also vanish if ALL its users were NULL; both sides filter, so the
    contract is symmetric)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.windows import utc_day

    ev = _read_table(sf_dir, "events", columns=["ts", "user_id"])

    def add_date(t: pa.Table) -> pa.Table:
        out = pa.table({"date_utc": utc_day(t["ts"]), "user_id": t["user_id"]})
        return out.filter(pc.is_valid(out["user_id"]))

    add_date.__name__ = "day_user_pairs"
    return ev.map_batches(add_date, batch_format="pyarrow")


def q_distinct_users_by_day(sf_dir: str):
    """EXACT per-day distinct active users — the skew-safe exact-distinct
    shape (stages/assembly.py:distinct_count_per_key: pair-hash buckets
    co-locate duplicate pairs, key-hash buckets sum the partials; a hot day
    never lands in one task)."""
    from ..stages.assembly import distinct_count_per_key

    return distinct_count_per_key(
        _events_day_user_pairs(sf_dir), "date_utc", "user_id", "n_users"
    )


def q_hll_users_by_day(sf_dir: str):
    """APPROXIMATE per-day distinct users via per-key HLL sketches
    (stages/sketches.py:hll_count_per_key) — the 10^12-scale path: shuffle
    is one 4 KB register array per (block, day) instead of every distinct
    (day, user) pair; ~1.6% relative error at p=12. No SQL twin by design
    (approx); tests pin it within 3%% of the exact operator at sf0.01."""
    from ..stages.sketches import hll_count_per_key

    return hll_count_per_key(
        _events_day_user_pairs(sf_dir), "date_utc", "user_id", "n_users_est"
    )


def _day_type_cells(sf_dir: str):
    """Bounded (date_utc, event_type, n_obs) cell table for the temporal
    drift family — the drift_days distributed piece, shared verbatim."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.assembly import bucketed_count_per_key
    from ..stages.windows import utc_day

    ev = _read_table(sf_dir, "events", columns=["ts", "event_type"])

    def day_type_key(t: pa.Table) -> pa.Table:
        d = utc_day(t["ts"])
        et = pc.coalesce(t["event_type"], "(null)")
        return pa.table({"_dt": pc.binary_join_element_wise(d, et, "|")})

    day_type_key.__name__ = "day_type_key"
    counts = bucketed_count_per_key(
        ev.map_batches(day_type_key, batch_format="pyarrow"),
        "_dt",
        "n_obs",
    )
    df = counts.to_pandas()  # bounded: days × types cells
    parts = df["_dt"].str.split("|", n=1, expand=True)
    return pd.DataFrame(
        {
            "date_utc": parts[0],
            "event_type": parts[1],
            "n_obs": df["n_obs"].astype("int64"),
        }
    )


WOW_WINDOW = 7


def q_wow_drift(sf_dir: str):
    """Week-over-week drift ALARM: per (UTC day, event_type) cell on the
    DENSE day×type grid (absent cells count 0 — both engines densify), the
    chi-square contribution of the day's type mix against its own trailing
    window: exp = n_day * w_type / w_all where w_* are the prior-7-row sums
    per type / across types. Days with fewer than 7 prior days, or whose
    window never saw the type (w_type = 0), emit -1 (out-of-model, the
    drift_roles convention). Distributed piece = the drift_days bounded cell
    count; the windowing is driver-side integer arithmetic on the cell
    table, so the chi kernel stays the only float leg and the twin
    (SUM OVER ROWS BETWEEN 7 PRECEDING AND 1 PRECEDING on the same dense
    grid) compares bit-exactly."""
    import math

    import numpy as np
    import pandas as pd

    cells = _day_type_cells(sf_dir)
    dates = sorted(cells["date_utc"].unique())
    types = sorted(cells["event_type"].unique())
    grid = (
        cells.set_index(["date_utc", "event_type"])["n_obs"]
        .reindex(
            pd.MultiIndex.from_product(
                [dates, types], names=["date_utc", "event_type"]
            ),
            fill_value=0,
        )
        .reset_index()
    )
    # prior-7-row sums per type over the dense, date-sorted series
    grid = grid.sort_values(["event_type", "date_utc"]).reset_index(drop=True)
    g = grid.groupby("event_type", sort=False)["n_obs"]
    grid["w_type"] = (
        g.apply(lambda s: s.shift(1).rolling(WOW_WINDOW, min_periods=1).sum())
        .reset_index(drop=True)
        .fillna(0)
        .astype("int64")
    )
    grid["n_prior"] = grid.groupby("event_type", sort=False).cumcount().clip(
        upper=WOW_WINDOW
    )
    day = grid.groupby("date_utc", sort=False).agg(
        n_day=("n_obs", "sum"), w_all=("w_type", "sum")
    )
    micro = []
    for r in grid.itertuples():
        if r.n_prior < WOW_WINDOW or r.w_type == 0:
            micro.append(-1)
            continue
        n_day = int(day.loc[r.date_utc, "n_day"])
        w_all = int(day.loc[r.date_utc, "w_all"])
        exp = float(n_day * int(r.w_type)) / float(w_all)
        diff = float(r.n_obs) - exp
        micro.append(int(math.floor(((diff * diff) / exp) * 1_000_000 + 0.5)))
    out = grid[["date_utc", "event_type", "n_obs"]].copy()
    out["chi_part_micro"] = pd.Series(micro, dtype="int64", index=grid.index)
    return out.sort_values(["date_utc", "event_type"]).reset_index(drop=True)


def wow_drift_oracle() -> str:
    chi = _CHI_SQL.format(n="w.n_obs", exp="e.exp")
    return (
        "WITH c AS (SELECT COALESCE(strftime(ts, '%Y-%m-%d'), '(null)') AS date_utc, "
        "COALESCE(event_type, '(null)') AS event_type, COUNT(*) AS n_obs "
        "FROM events GROUP BY 1, 2), "
        "dd AS (SELECT DISTINCT date_utc FROM c), "
        "tt AS (SELECT DISTINCT event_type FROM c), "
        "g AS (SELECT dd.date_utc, tt.event_type, "
        "CAST(COALESCE(c.n_obs, 0) AS BIGINT) AS n_obs "
        "FROM dd CROSS JOIN tt "
        "LEFT JOIN c ON c.date_utc = dd.date_utc AND c.event_type = tt.event_type), "
        "w AS (SELECT date_utc, event_type, n_obs, "
        f"SUM(n_obs) OVER (PARTITION BY event_type ORDER BY date_utc "
        f"ROWS BETWEEN {WOW_WINDOW} PRECEDING AND 1 PRECEDING) AS w_type, "
        f"COUNT(*) OVER (PARTITION BY event_type ORDER BY date_utc "
        f"ROWS BETWEEN {WOW_WINDOW} PRECEDING AND 1 PRECEDING) AS n_prior "
        "FROM g), "
        "d AS (SELECT date_utc, SUM(n_obs) AS n_day, SUM(w_type) AS w_all "
        "FROM w GROUP BY 1), "
        "e AS (SELECT w.date_utc, w.event_type, "
        "CAST(d.n_day * w.w_type AS DOUBLE) / CAST(d.w_all AS DOUBLE) AS exp "
        "FROM w JOIN d USING (date_utc)) "
        "SELECT w.date_utc, w.event_type, w.n_obs, "
        f"CASE WHEN w.n_prior < {WOW_WINDOW} OR w.w_type = 0 THEN -1 "
        f"ELSE {chi} END AS chi_part_micro "
        "FROM w JOIN e ON e.date_utc = w.date_utc AND e.event_type = w.event_type"
    )


def q_tdigest_value_by_day(sf_dir: str):
    """APPROXIMATE per-day p50/p95 of events.value via mergeable t-digests
    (stages/sketches.py:tdigest_quantile_per_key) — one ≤3 KB digest per
    (block, day) through the exchange instead of the column; the per-day
    quantile plane at 10^12 rows. No SQL twin by design (approx); tests pin
    both quantiles against DuckDB's exact quantile_cont within 5%."""
    import pyarrow as pa

    from ..stages.sketches import tdigest_quantile_per_key
    from ..stages.windows import utc_day

    ev = _read_table(sf_dir, "events", columns=["ts", "value"])

    def add_date(t: pa.Table) -> pa.Table:
        return pa.table({"date_utc": utc_day(t["ts"]), "value": t["value"]})

    add_date.__name__ = "day_value_pairs"
    return tdigest_quantile_per_key(
        ev.map_batches(add_date, batch_format="pyarrow"),
        "date_utc",
        "value",
        qs=(0.5, 0.95),
    )


def _benford_probs() -> dict[int, float]:
    import math

    return {d: math.log10(1.0 + 1.0 / d) for d in range(1, 10)}


def q_benford_value(sf_dir: str):
    """Benford first-significant-digit conformance audit on events.value
    (the classic numeric data-quality / fabrication check): per digit 1-9,
    observed count + chi-square contribution vs the Benford expectation
    n_pos * log10(1 + 1/d). The value is micro-scaled to cents map-side
    (floor(v*100 + 0.5), the repo's standard float→int channel), so the
    digit is the first character of an INTEGER's decimal rendering —
    identical in numpy and DuckDB, no float-to-string formatting channel.
    Non-positive cents roll up under digit 0 with chi_part_micro = -1
    (out-of-model, the drift_roles convention). The Benford constants are
    shortest-repr doubles inlined into the SQL twin, so the chi kernel
    (mult/sub/div only) compares bit-exactly. Distributed piece: one
    bucketed count over a 10-ary digit key."""
    import math

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..stages.assembly import bucketed_count_per_key

    ev = _read_table(sf_dir, "events", columns=["value"])

    def digit_key(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False).astype("float64")
        v_micro = np.floor(np.nan_to_num(v, nan=-1.0) * 100 + 0.5).astype("int64")
        s = pd.Series(v_micro)
        digit = pd.Series(np.zeros(len(s), dtype="int64"))
        pos = v_micro > 0
        digit[pos] = s[pos].astype(str).str[0].astype("int64")
        return pa.table({"_d": pa.array(digit.astype(str), pa.string())})

    digit_key.__name__ = "benford_digit_key"
    counts = bucketed_count_per_key(
        ev.map_batches(digit_key, batch_format="pyarrow"), "_d", "n_obs"
    )
    df = counts.to_pandas()  # ≤ 10 rows at any sf
    df = pd.DataFrame(
        {"digit": df["_d"].astype("int64"), "n_obs": df["n_obs"].astype("int64")}
    )
    n_pos = int(df.loc[df["digit"] > 0, "n_obs"].sum())
    probs = _benford_probs()
    micro = []
    for d, o in zip(df["digit"], df["n_obs"]):
        if d == 0:
            micro.append(-1)
            continue
        exp = float(n_pos) * probs[int(d)]
        diff = float(o) - exp
        micro.append(int(math.floor(((diff * diff) / exp) * 1_000_000 + 0.5)))
    df["chi_part_micro"] = pd.Series(micro, dtype="int64", index=df.index)
    return df.sort_values("digit").reset_index(drop=True)


def benford_value_oracle() -> str:
    probs_rows = ", ".join(f"({d}, {p!r})" for d, p in _benford_probs().items())
    chi = _CHI_SQL.format(n="counts.n_obs", exp="(CAST(np.n_pos AS DOUBLE) * p.pr)")
    return (
        # NULL value → NULL v_micro → the ELSE 0 branch, mirroring the
        # engine's nan→-1 → digit-0 rollup (no NULL filter on either side)
        "WITH v AS (SELECT CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS v_micro "
        "FROM events), "
        "c AS (SELECT CASE WHEN v_micro > 0 "
        "THEN CAST(SUBSTR(CAST(v_micro AS VARCHAR), 1, 1) AS BIGINT) "
        "ELSE 0 END AS digit FROM v), "
        "counts AS (SELECT digit, COUNT(*) AS n_obs FROM c GROUP BY 1), "
        "np AS (SELECT SUM(CASE WHEN digit > 0 THEN n_obs ELSE 0 END) AS n_pos "
        "FROM counts), "
        f"p(digit, pr) AS (SELECT * FROM (VALUES {probs_rows}) t(digit, pr)) "
        "SELECT counts.digit, CAST(counts.n_obs AS BIGINT) AS n_obs, "
        f"CASE WHEN counts.digit = 0 THEN -1 ELSE {chi} END AS chi_part_micro "
        "FROM counts LEFT JOIN p USING (digit) CROSS JOIN np"
    )


def q_full_join_recon(sf_dir: str):
    """Reconciliation FULL OUTER join: per-user click counts vs purchase
    counts — users present in either side appear once, missing side
    coalesced to 0 (stages/joins.py:full_outer_join — one tagged-union
    shuffle, side-specific null-key overflow buckets)."""
    import pandas as pd

    from ..stages.assembly import bucketed_count_per_key
    from ..stages.joins import full_outer_join

    # distinct users scale with the corpus: bucketed counts, not
    # groupby(user).aggregate(Count) (the sort-aggregate group-cardinality
    # hazard — BASELINE.md addendum). NULL user_id rows are dropped by the
    # count stage on both engine and oracle sides (documented semantics).
    ev = _read_table(sf_dir, "events", columns=["event_type", "user_id"])
    clicks = bucketed_count_per_key(
        ev.filter(expr="event_type == 'click'"), "user_id", "n_clicks"
    )
    purchases = bucketed_count_per_key(
        ev.filter(expr="event_type == 'purchase'"), "user_id", "n_purchases"
    )
    joined = full_outer_join(clicks, purchases, on="user_id")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        # full_outer_join passes null keys through; the count stage drops
        # them here, but a corpus with NULL user_id must not crash the
        # int64 cast — filter defensively (matches the oracle's
        # user_id IS NOT NULL), keeping the compared dtype plain int64
        df = df[df["user_id"].notna()]
        return pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "n_clicks": df["n_clicks"].fillna(0).astype("int64"),
                "n_purchases": df["n_purchases"].fillna(0).astype("int64"),
            }
        )

    finish.__name__ = "coalesce_counts"
    return joined.map_batches(finish, batch_format="pandas")


def q_rolling_turn_chars(sf_dir: str):
    """Frame-based rolling window: per turn, SUM(text length) over the
    current + 2 preceding turns of its conversation in the stable order
    (stages/assembly.py:rolling_turn_chars — the ROWS BETWEEN frame shape;
    one bucketed conversation shuffle, output volume = input volume)."""
    from ..stages.assembly import rolling_turn_chars

    return rolling_turn_chars(_read_transcripts(sf_dir), window=3)


ATTRIBUTION_WINDOW_US = 3_600_000_000  # 1h


def q_attribution_join(sf_dir: str):
    """Click→purchase attribution: every (click, purchase) pair of the same
    user with the click inside the purchase's trailing 1h window — the
    marketing-attribution time-band join, expressed through
    joins.range_join (purchases define [ts-1h, ts] intervals, clicks are the
    points; one tagged-union shuffle co-located by user)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.joins import range_join

    ev = _read_table(sf_dir, "events").select_columns(
        ["event_id", "user_id", "event_type", "ts"]
    )

    def clicks(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "click"))
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        return pa.table(
            {
                "click_event_id": t["event_id"],
                "user_id": t["user_id"],
                "ts_us": us,
            }
        )

    def purchases(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "purchase"))
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        return pa.table(
            {
                "purchase_event_id": t["event_id"],
                "user_id": t["user_id"],
                "lo_us": pc.subtract(us, ATTRIBUTION_WINDOW_US),
                "hi_us": us,
            }
        )

    clicks.__name__, purchases.__name__ = "click_points", "purchase_intervals"
    joined = range_join(
        ev.map_batches(clicks, batch_format="pyarrow"),
        ev.map_batches(purchases, batch_format="pyarrow"),
        on="user_id",
        point="ts_us",
        lo="lo_us",
        hi="hi_us",
    )
    return joined.select_columns(["click_event_id", "purchase_event_id"])


def q_lexical_diversity(sf_dir: str):
    """Per-doc type-token-ratio components (n_words, n_unique_words) over the
    canonical word tokenizer (stages/text.py:lexical_diversity — map-only,
    zero shuffle)."""
    from ..stages.text import lexical_diversity

    return lexical_diversity(_read_table(sf_dir, "documents"))


PREFIX_K = 24


def q_boilerplate_prefixes(sf_dir: str):
    """Shared-prefix boilerplate groups: >= 2 docs agreeing on their first 24
    chars (stages/text.py:boilerplate_prefixes — per-batch (count, min)
    combiner, one single-key groupby)."""
    from ..stages.text import boilerplate_prefixes

    return boilerplate_prefixes(_read_table(sf_dir, "documents"), k=PREFIX_K)


def q_cluster_purity(sf_dir: str):
    """Per-cluster member count + majority ground-truth label over the
    k-means assignment (stages/similarity.py:cluster_purity — label rides the
    broadcast assignment map, per-block counts folded on the driver,
    k×labels-sized finish)."""
    import numpy as np
    import pyarrow.parquet as pq

    from ..stages.similarity import cluster_purity

    path = ensure_kmeans_centroids(sf_dir)
    C = pq.read_table(path)["centroid"].to_pylist()
    return cluster_purity(
        _read_table(sf_dir, "embeddings"), np.asarray(C, dtype=np.float64)
    )


def q_dedup_normalized(sf_dir: str):
    """Case/whitespace-normalized exact dedup keepers: min doc_id per
    trim(collapse_ws(lower(text))) group (stages/dedup.py:normalized_dedup —
    Arrow RE2 normalization feeding the 16-bytes/row exact_dedup shuffle)."""
    from ..stages.dedup import normalized_dedup

    return normalized_dedup(_read_table(sf_dir, "documents"))


def build_queries() -> dict[str, Callable[[str], Any]]:
    # ORDER MATTERS for the grading driver: it oracle-checks the FIRST 50
    # entries. Rounds 1-4 verified the core validation/report/dedup/ANN/
    # window/join surface (green rows in CORRECTNESS_r01-r04); round 5 rotates
    # the previously-unchecked tail (the round-4 LLM-pipeline surface + the
    # two new A4/M9 queries) into the head, keeping 4 long-green canaries
    # inside the window as regression sentinels.
    return {
        # --- round-5 head: driver-unverified until now ---
        "attribution_join": q_attribution_join,
        # drift_days took curate_docs' head slot: the temporal-drift suite is
        # new in round 5 while curate_docs is green in r2+r3 and curate.py is
        # untouched this round.
        "drift_days": q_drift_days,
        # hll_registers took near_dup_pairs' head slot: the register census
        # is new this round (upgrades HLL from rows-only to hash-checked)
        # while near_dup_pairs is green since r1 and dedup.py is untouched
        # in round 5.
        "hll_registers": q_hll_registers,
        "jaccard_ngram_pairs": q_jaccard_ngram_pairs,
        "containment_pairs": q_containment_pairs,
        # distinct_users_by_day took bloom_semi_join's head slot
        # (bloom_semi_join green r3, joins.py untouched this round).
        "distinct_users_by_day": q_distinct_users_by_day,
        "anti_join_orphans": q_anti_join_orphans,
        # shuffle_export took token_count_bpe's head slot: the epoch shuffle
        # is new this round while token_count_bpe is green since r1 and
        # text.py is untouched in round 5.
        "shuffle_export": q_shuffle_export,
        # benford_value took quantile_filter's head slot (quantile_filter
        # green r3, sampling.py untouched this round).
        "benford_value": q_benford_value,
        "lexical_diversity": q_lexical_diversity,
        "boilerplate_prefixes": q_boilerplate_prefixes,
        # len_drift_days took lang_id's head slot (lang_id green r2+r3,
        # text.py untouched by the drift suite).
        "len_drift_days": q_len_drift_days,
        # lang_mix / fingerprint_dups / cluster_purity re-enter the head for
        # the round-5 window (mod_sample / stratified_sample /
        # grouped_quantiles rotate out — each green since r1-r3 with
        # sampling.py untouched this round), so EVERY oracle-bearing query
        # that has never had a driver hash-green row sits inside the checked
        # 50.
        "lang_mix": q_lang_mix,
        "turn_reindex": q_turn_reindex,
        "repetition_stats": q_repetition_stats,
        "contamination_scan": q_contamination_scan,
        "pii_scan": q_pii_scan,
        "zscore_scaled": q_zscore_scaled,
        "tfidf_top_terms": q_tfidf_top_terms,
        "fingerprints": q_fingerprints,
        "fingerprint_dups": q_fingerprint_dups,
        # dup_spans (new this round: substring-level dedup) takes the
        # quality_scores sentinel slot — quality_scores is green r1-r4 and
        # its QualityScore kernel is untouched
        "dup_spans": q_dup_spans,
        "changed_conversations": q_changed_conversations,
        "split_leakage": q_split_leakage,
        # multimodal_resize took turn_text_digest's head slot: resize is new
        # this round (never driver-checked) while turn_text_digest is green
        # since r1 and none of its code changed in round 5.
        "multimodal_resize": q_multimodal_resize,
        "conversation_doc": q_conversation_doc,
        "turn_pairs": q_turn_pairs,
        "response_variants": q_response_variants,
        "cross_conv_dups": q_cross_conv_dups,
        "role_transitions": q_role_transitions,
        "conv_segments": q_conv_segments,
        "conversation_stats": q_conversation_stats,
        "rolling_turn_chars": q_rolling_turn_chars,
        "embedding_checks": q_embedding_checks,
        "oov_stats": q_oov_stats,
        "group_topk": q_group_topk,
        "global_rank": q_global_rank,
        "cluster_assign": q_cluster_assign,
        "cluster_purity": q_cluster_purity,
        "clean_conversations": q_clean_conversations,
        "semantic_dedup": q_semantic_dedup,
        "mixture_sample": q_mixture_sample,
        "packing_bins": q_packing_bins,
        # transition_drift took worst_offenders' head slot (worst_offenders
        # green r2+r3, report.py untouched this round).
        "transition_drift": q_transition_drift,
        "multimodal_decode": q_multimodal_decode,
        # --- new this round (A4, M9, audio decode twin) ---
        "unique_event_names": q_unique_event_names,
        "valid_fields": q_valid_fields,
        "multimodal_audio": q_multimodal_audio,
        "multimodal_frames": q_multimodal_frames,
        # spec_suggest (new this round: capped-distinct spec inference)
        # takes the last canary slot — validate_scalar is green r1-r4 and
        # validate.py is untouched by this feature
        "spec_suggest": q_spec_suggest,
        # --- verified rounds 1-4 (green CORRECTNESS rows on record) ---
        "validate_scalar": q_validate_scalar,
        "conversation_checks": q_conversation_checks,
        "error_rate": q_error_rate,
        "dedup_minhash": q_dedup_minhash,
        "valid_turns": q_valid_turns,
        "conversation_checks_salted": q_conversation_checks_salted,
        "alternation_checks": q_alternation_checks,
        "failures_by_day": q_failures_by_day,
        "column_stats": q_column_stats,
        "hll_distinct_conv": q_hll_distinct_conv,
        "distinct_conv_exact": q_distinct_conv_exact,
        "quantiles_turn_idx": q_quantiles_turn_idx,
        "quantiles_exact": q_quantiles_exact,
        "drift_roles": q_drift_roles,
        "validate_events": q_validate_events,
        "events_failures_by_day": q_events_failures_by_day,
        "events_error_rate": q_events_error_rate,
        "dedup_exact": q_dedup_exact,
        "dedup_normalized": q_dedup_normalized,
        "dedup_keep_best": q_dedup_keep_best,
        "dup_cluster_stats": q_dup_cluster_stats,
        "dedup_simhash": q_dedup_simhash,
        "dedup_embedding": q_dedup_embedding,
        "ann_topk": q_ann_topk,
        "ann_topk_ivf": q_ann_topk_ivf,
        "knn_graph": q_knn_graph,
        "knn_graph_ivf": q_knn_graph_ivf,
        "hard_negatives": q_hard_negatives,
        "text_stats": q_text_stats,
        "validate_json_props": q_validate_json_props,
        "validate_nested": q_validate_nested,
        "validate_dispatch": q_validate_dispatch,
        "funnel_counts": q_funnel_counts,
        "ngram_topk": q_ngram_topk,
        "ngram_pmi": q_ngram_pmi,
        "heavy_hitters": q_heavy_hitters,
        "sessionize": q_sessionize,
        "user_growth": q_user_growth,
        "retention_cohorts": q_retention_cohorts,
        "pivot_event_types": q_pivot_event_types,
        "window_distinct": q_window_distinct,
        "window_tumbling": q_window_tumbling,
        "window_sliding": q_window_sliding,
        "window_session": q_window_session,
        "broadcast_join": q_broadcast_join,
        "bucketed_join": q_bucketed_join,
        "left_join_enrich": q_left_join_enrich,
        "full_join_recon": q_full_join_recon,
        "asof_join": q_asof_join,
        "range_join": q_range_join,
        "turn_text_digest": q_turn_text_digest,
        "near_dup_pairs": q_near_dup_pairs,
        "token_count_bpe": q_token_count_bpe,
        # rotated out of the head for lang_mix / fingerprint_dups /
        # cluster_purity (the last three never-driver-checked queries): each
        # of these three is green in earlier CORRECTNESS rounds and
        # sampling.py is untouched this round, and each stays twin-backed in
        # the builder's full-registry sweep
        "mod_sample": q_mod_sample,
        "stratified_sample": q_stratified_sample,
        "grouped_quantiles": q_grouped_quantiles,
        "quality_scores": q_quality_scores,
        # --- rotated out for the round-5 drift suite (green r2+r3 rows
        # stand; their modules are untouched this round) ---
        "curate_docs": q_curate_docs,
        "lang_id": q_lang_id,
        "worst_offenders": q_worst_offenders,
        "quantile_filter": q_quantile_filter,
        "bloom_semi_join": q_bloom_semi_join,
        # approx per-key HLL: no twin by design (tests pin vs the exact op)
        "hll_users_by_day": q_hll_users_by_day,
        # approx per-key t-digest quantiles: no twin by design (tests pin
        # vs DuckDB exact quantile_cont within 5%)
        "tdigest_value_by_day": q_tdigest_value_by_day,
        "wow_drift": q_wow_drift,
    }


def build_oracles(sf: float = 0.01) -> dict[str, str]:
    out = transcript_oracles(sf)
    out.update(events_oracles())
    out.update(training_ops_oracles())
    out["validate_json_props"] = json_props_oracle()
    out["validate_nested"] = nested_oracle(sf)
    out["validate_dispatch"] = dispatch_oracle()
    out["unique_event_names"] = (
        f"SELECT DISTINCT event_name FROM ({dispatch_oracle()})"
    )
    out["spec_suggest"] = spec_suggest_oracle(sf)
    # decode oracle: generation-time truth parquet (written at SQL-build time
    # so the file exists before DuckDB binds, like the simhash sidecars)
    from ..stages.multimodal import ensure_media_real as _emr

    _, _media_expected, _audio_expected, _video_expected, _resize_expected = _emr(96)
    out["multimodal_decode"] = (
        "SELECT media_id, width, height, pix_sum "
        f"FROM read_parquet('{_media_expected}')"
    )
    out["multimodal_audio"] = (
        "SELECT media_id, sample_rate, n_samples, samp_sum "
        f"FROM read_parquet('{_audio_expected}')"
    )
    out["multimodal_resize"] = (
        "SELECT media_id, width, height, pix_sum "
        f"FROM read_parquet('{_resize_expected}')"
    )
    out["multimodal_frames"] = (
        # same evenly-spaced sample rule as the engine: (j*(nf-1)) // (k-1),
        # k=4 — DuckDB // is the identical integer floor division
        f"WITH t AS (SELECT * FROM read_parquet('{_video_expected}')), "
        "m AS (SELECT DISTINCT media_id, n_frames, width, height FROM t), "
        "j AS (SELECT unnest(generate_series(0, 3)) AS frame_idx), "
        "s AS (SELECT m.media_id, CAST(j.frame_idx AS INTEGER) AS frame_idx, "
        "CAST((j.frame_idx * (m.n_frames - 1)) // 3 AS INTEGER) AS src_frame, "
        "m.width, m.height FROM m CROSS JOIN j) "
        "SELECT s.media_id, s.frame_idx, s.src_frame, s.width, s.height, "
        "t.luma_sum FROM s JOIN t ON t.media_id = s.media_id "
        "AND t.src_frame = s.src_frame"
    )
    out["asof_join"] = asof_oracle()
    out["range_join"] = range_join_oracle()
    out["curate_docs"] = curate_oracle()
    out["near_dup_pairs"] = near_dup_pairs_oracle()
    out["jaccard_ngram_pairs"] = jaccard_ngram_pairs_oracle()
    out["containment_pairs"] = containment_pairs_oracle()
    out["repetition_stats"] = repetition_oracle()
    out["contamination_scan"] = contamination_oracle()
    out["pii_scan"] = pii_oracle()
    out["zscore_scaled"] = zscore_oracle()
    out["tfidf_top_terms"] = tfidf_oracle()
    out["dedup_minhash"] = minhash_components_oracle()
    out["dup_cluster_stats"] = (
        "SELECT cluster_size, COUNT(*) AS n_clusters FROM "
        "(SELECT cluster, COUNT(*) AS cluster_size FROM "
        f"({minhash_components_oracle()}) GROUP BY cluster) "
        "GROUP BY cluster_size"
    )
    out["dedup_embedding"] = embedding_components_oracle()
    # simhash / fingerprints twins recompute over the engine's emitted
    # signature / gram-hash sidecars; generated at SQL-build time because the
    # driver may bind the SQL before running the Ray query
    import os as _os

    _docs_dir = f"/root/testdata/sf{sf:g}"
    # HLL register twin recomputes over the engine's emitted conv_id-hash
    # sidecar (hash64 is the one non-SQL step; registers/ranks are bit ops)
    out["hll_registers"] = hll_registers_oracle(_docs_dir)
    if _os.path.exists(_os.path.join(_docs_dir, "documents.parquet")):
        out["dedup_simhash"] = simhash_components_oracle(_docs_dir)
        out["fingerprints"] = fingerprints_oracle(_docs_dir)
        out["fingerprint_dups"] = fingerprint_dups_oracle(_docs_dir)
        out["dup_spans"] = dup_spans_oracle(_docs_dir)
        out["split_leakage"] = (
            f"{_winnow_cte(_docs_dir)}, "
            f"p AS (SELECT DISTINCT doc_id, xor(m, {_SIGNBIT}) AS fp FROM d), "
            "tr AS (SELECT DISTINCT fp FROM p WHERE doc_id % 10 < 8) "
            "SELECT doc_id, COUNT(*) AS n_leaked_fps FROM p "
            "WHERE doc_id % 10 >= 8 AND fp IN (SELECT fp FROM tr) "
            "GROUP BY doc_id"
        )
    if _os.path.exists(_os.path.join(_docs_dir, "embeddings.parquet")):
        out["cluster_assign"] = cluster_assign_oracle(_docs_dir)
        out["cluster_purity"] = cluster_purity_oracle(_docs_dir)
        out["semantic_dedup"] = semantic_dedup_oracle(_docs_dir)
    out["bloom_semi_join"] = (
        "SELECT o_orderkey FROM orders WHERE o_custkey IN "
        "(SELECT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING')"
    )
    out["anti_join_orphans"] = (
        "SELECT o_orderkey FROM orders o WHERE NOT EXISTS "
        "(SELECT 1 FROM customer c WHERE c.c_custkey = o.o_custkey "
        "AND c.c_mktsegment = 'BUILDING')"
    )
    out["mod_sample"] = (
        "SELECT o_orderkey, o_custkey FROM orders WHERE o_orderkey % 10 < 1"
    )
    out["stratified_sample"] = (
        "SELECT o_orderpriority, o_orderkey FROM "
        "(SELECT o_orderpriority, o_orderkey, ROW_NUMBER() OVER "
        "(PARTITION BY o_orderpriority ORDER BY o_orderkey) AS rn FROM orders) "
        "WHERE rn <= 10"
    )
    from ..stages.text import BPE_SPLIT_PATTERN

    out["token_count_bpe"] = (
        "SELECT doc_id, len(regexp_extract_all(coalesce(text, ''), "
        f"'{BPE_SPLIT_PATTERN.replace(chr(39), chr(39) * 2)}')) AS n_bpe_tokens "
        "FROM documents"
    )
    _mr = MIXTURE_RATES
    _cases = " ".join(
        f"WHEN '{g}' THEN {int(round(r * 1000))}" for g, r in sorted(_mr.items())
    )
    _ok = OOV_VOCAB_K
    out["oov_stats"] = (
        "WITH toks AS (SELECT doc_id, unnest(regexp_extract_all(lower(coalesce(text, '')), "
        "'[a-z0-9]+')) AS tok FROM documents), "
        "dft AS (SELECT tok, COUNT(DISTINCT doc_id) AS df FROM toks GROUP BY tok), "
        f"vocab AS (SELECT tok FROM dft ORDER BY df DESC, tok LIMIT {_ok}), "
        "oov AS (SELECT t.doc_id, COUNT(*) AS n_oov FROM toks t "
        "WHERE t.tok NOT IN (SELECT tok FROM vocab) GROUP BY t.doc_id) "
        "SELECT d.doc_id, "
        "len(regexp_extract_all(lower(coalesce(d.text, '')), '[a-z0-9]+')) AS n_tokens, "
        "COALESCE(o.n_oov, 0) AS n_oov "
        "FROM documents d LEFT JOIN oov o ON o.doc_id = d.doc_id"
    )
    out["embedding_checks"] = (
        "SELECT vec_id, COALESCE(len(embedding), 0) AS dim, "
        "COALESCE(len(list_filter(embedding, x -> isnan(x))), 0) AS n_nan, "
        "CAST(COALESCE(list_sum(list_transform(embedding, "
        "x -> CASE WHEN isnan(x) THEN 0 ELSE CAST(x AS DOUBLE) * CAST(x AS DOUBLE) END"
        ")), 0) = 0 AS BIGINT) AS zero_norm FROM embeddings"
    )
    out["mixture_sample"] = (
        f"SELECT doc_id, lang FROM documents "
        f"WHERE doc_id % 1000 < CASE lang {_cases} ELSE 0 END"
    )
    _pb = PACK_BUDGET
    _ss = SHUFFLE_SEED
    _seo = shuffle_export_oracle
    out["shuffle_export"] = _seo(_ss)
    out["packing_bins"] = (
        "SELECT doc_id, n_chars, "
        "CAST(COALESCE(SUM(n_chars) OVER (ORDER BY doc_id "
        f"ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) // {_pb} AS BIGINT) AS bin "
        "FROM documents"
    )
    out["group_topk"] = (
        "SELECT source, doc_id, n_chars FROM "
        "(SELECT source, doc_id, n_chars, ROW_NUMBER() OVER "
        "(PARTITION BY source ORDER BY n_chars DESC, doc_id) AS rn FROM documents) "
        "WHERE rn <= 5"
    )
    out["global_rank"] = (
        "SELECT doc_id, n_chars, COUNT(*) OVER "
        "(ORDER BY n_chars RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS n_le "
        "FROM documents WHERE n_chars IS NOT NULL"
    )
    out["quantile_filter"] = (
        "SELECT doc_id, n_chars FROM documents "
        "WHERE n_chars >= (SELECT quantile_disc(n_chars, 0.5) FROM documents)"
    )
    out["grouped_quantiles"] = "\nUNION ALL\n".join(
        f"SELECT o_orderpriority, {int(q * 1000)} AS q_permille, "
        f"CAST(floor(quantile_disc(o_totalprice, {q}) * 100 + 0.5) AS BIGINT) AS value_cents "
        "FROM orders GROUP BY o_orderpriority"
        for q in (0.5, 0.9, 0.99)
    )
    # language mix wraps the lang_id twin (same vectorized scorer semantics)
    out["lang_mix"] = (
        f"SELECT d.source, q.lang_pred, COUNT(*) AS n FROM ({out['lang_id']}) q "
        "JOIN documents d ON d.doc_id = q.doc_id GROUP BY d.source, q.lang_pred"
    )
    _kk = KNN_K
    out["knn_graph"] = (
        # float64 throughout: list_cosine_similarity on FLOAT lists runs in
        # float32 and flips ~5% of micro-roundings vs the engine's float64
        "WITH d AS (SELECT vec_id, list_transform(embedding, "
        "x -> CAST(x AS DOUBLE)) AS e FROM embeddings), "
        "s AS (SELECT a.vec_id AS vec_id, b.vec_id AS neighbor_id, "
        "list_cosine_similarity(a.e, b.e) AS sim "
        "FROM d a CROSS JOIN d b WHERE a.vec_id <> b.vec_id), "
        "r AS (SELECT vec_id, neighbor_id, sim, ROW_NUMBER() OVER "
        "(PARTITION BY vec_id ORDER BY sim DESC, neighbor_id) AS rank FROM s) "
        "SELECT vec_id, neighbor_id, rank, "
        "CAST(floor(sim * 1000000 + 0.5) AS BIGINT) AS score_micro "
        f"FROM r WHERE rank <= {_kk}"
    )
    # full-probe bucketed graph is exact by construction -> shares the twin
    out["knn_graph_ivf"] = out["knn_graph"]
    out["hard_negatives"] = (
        "WITH d AS (SELECT vec_id, list_transform(embedding, "
        "x -> CAST(x AS DOUBLE)) AS e FROM embeddings), "
        "s AS (SELECT a.vec_id AS vec_id, b.vec_id AS neighbor_id, "
        "list_cosine_similarity(a.e, b.e) AS sim "
        "FROM d a CROSS JOIN d b WHERE a.vec_id <> b.vec_id), "
        "r AS (SELECT vec_id, neighbor_id, sim, ROW_NUMBER() OVER "
        "(PARTITION BY vec_id ORDER BY sim DESC, neighbor_id) AS rank FROM s) "
        "SELECT r.vec_id, r.neighbor_id, r.rank, "
        "CAST(floor(r.sim * 1000000 + 0.5) AS BIGINT) AS score_micro, "
        "CAST(la.label AS BIGINT) AS label, CAST(lb.label AS BIGINT) AS neighbor_label "
        "FROM r JOIN embeddings la ON la.vec_id = r.vec_id "
        "JOIN embeddings lb ON lb.vec_id = r.neighbor_id "
        f"WHERE r.rank <= {_kk} AND la.label <> lb.label"
    )
    out["dedup_keep_best"] = (
        "SELECT doc_id, source FROM "
        "(SELECT doc_id, source, ROW_NUMBER() OVER (PARTITION BY text "
        "ORDER BY coalesce(source, ''), doc_id) AS rn FROM documents) "
        "WHERE rn = 1"
    )
    out["funnel_counts"] = (
        "WITH s0 AS (SELECT user_id, MIN(ts) AS ts FROM events "
        "WHERE event_type = 'signup' GROUP BY user_id), "
        "s1 AS (SELECT e.user_id, MIN(e.ts) AS ts FROM events e "
        "JOIN s0 ON e.user_id = s0.user_id "
        "WHERE e.event_type = 'click' AND e.ts > s0.ts GROUP BY e.user_id), "
        "s2 AS (SELECT e.user_id, MIN(e.ts) AS ts FROM events e "
        "JOIN s1 ON e.user_id = s1.user_id "
        "WHERE e.event_type = 'purchase' AND e.ts > s1.ts GROUP BY e.user_id) "
        "SELECT 0 AS stage_idx, 'signup' AS stage, (SELECT COUNT(*) FROM s0) AS n_users "
        "UNION ALL SELECT 1, 'click', (SELECT COUNT(*) FROM s1) "
        "UNION ALL SELECT 2, 'purchase', (SELECT COUNT(*) FROM s2)"
    )
    out["ngram_topk"] = (
        "WITH w AS (SELECT regexp_extract_all(lower(coalesce(text, '')), "
        "'[a-z0-9]+') AS ws FROM documents), "
        "pos AS (SELECT ws, unnest(generate_series(1, greatest(len(ws) - 1, 0))) AS i FROM w), "
        "g AS (SELECT ws[i] || ' ' || ws[i + 1] AS gram FROM pos) "
        "SELECT gram, COUNT(*) AS n FROM g GROUP BY gram "
        "ORDER BY n DESC, gram LIMIT 50"
    )
    _pmc = PMI_MIN_COUNT
    out["ngram_pmi"] = (
        "WITH w AS (SELECT regexp_extract_all(lower(coalesce(text, '')), "
        "'[a-z0-9]+') AS ws FROM documents), "
        "pos AS (SELECT ws, unnest(generate_series(1, greatest(len(ws) - 1, 0))) AS i FROM w), "
        "bgc AS (SELECT ws[i] AS w1, ws[i + 1] AS w2, COUNT(*) AS n_xy FROM pos GROUP BY 1, 2), "
        "toks AS (SELECT unnest(ws) AS tok FROM w), "
        "uni AS (SELECT tok, COUNT(*) AS n FROM toks GROUP BY tok) "
        "SELECT b.w1, b.w2, b.n_xy, x.n AS n_x, y.n AS n_y "
        "FROM bgc b JOIN uni x ON x.tok = b.w1 JOIN uni y ON y.tok = b.w2 "
        f"WHERE b.n_xy >= {_pmc}"
    )
    _hh = HH_PERMILLE
    out["user_growth"] = (
        # COALESCE → '(null)' matches the engine's NaT-first-activity
        # sentinel (users whose timestamps are all NULL)
        "WITH f AS (SELECT user_id, MIN(ts) AS first_ts FROM events GROUP BY user_id), "
        "c AS (SELECT COALESCE(strftime(first_ts, '%Y-%m-%d'), '(null)') AS date_utc, "
        "COUNT(*) AS n_new FROM f GROUP BY 1) "
        "SELECT date_utc, n_new, "
        "CAST(SUM(n_new) OVER (ORDER BY date_utc ROWS UNBOUNDED PRECEDING) AS BIGINT) AS n_cum "
        "FROM c"
    )
    out["sessionize"] = (
        "WITH v AS (SELECT user_id, epoch_us(ts) AS ts_us FROM events "
        "WHERE ts IS NOT NULL), "
        "o AS (SELECT user_id, ts_us, CASE WHEN lag(ts_us) OVER w IS NULL "
        "OR ts_us - lag(ts_us) OVER w > 1800000000 THEN ts_us END AS mark "
        "FROM v WINDOW w AS (PARTITION BY user_id ORDER BY ts_us)) "
        "SELECT user_id, ts_us, MAX(mark) OVER (PARTITION BY user_id "
        "ORDER BY ts_us ROWS UNBOUNDED PRECEDING) AS session_start FROM o"
    )
    out["retention_cohorts"] = (
        # engine day index = epoch_us // 86400_000_000 (UTC); DuckDB's `//`
        # on BIGINT is the same floor division, make_timestamp(µs) renders
        # the cohort day back as a naive-UTC date string like the engine
        "WITH v AS (SELECT user_id, epoch_us(ts) // 86400000000 AS day "
        "FROM events WHERE ts IS NOT NULL AND user_id IS NOT NULL), "
        "a AS (SELECT DISTINCT user_id, day FROM v), "
        "f AS (SELECT user_id, MIN(day) AS d0 FROM a GROUP BY user_id) "
        "SELECT strftime(make_timestamp(f.d0 * 86400000000), '%Y-%m-%d') AS cohort_date, "
        "CAST(a.day - f.d0 AS BIGINT) AS day_offset, COUNT(*) AS n_users "
        "FROM a JOIN f ON a.user_id = f.user_id GROUP BY 1, 2"
    )
    out["pivot_event_types"] = (
        "SELECT COALESCE(strftime(ts, '%Y-%m-%d'), '(null)') AS date_utc, "
        "CAST(SUM(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS BIGINT) AS n_click, "
        "CAST(SUM(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS BIGINT) AS n_view, "
        "CAST(SUM(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT) AS n_purchase, "
        "CAST(SUM(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END) AS BIGINT) AS n_signup, "
        "CAST(SUM(CASE WHEN event_type IS NULL OR event_type NOT IN "
        "('click', 'view', 'purchase', 'signup') THEN 1 ELSE 0 END) AS BIGINT) AS n_other "
        "FROM events GROUP BY 1"
    )
    out["full_join_recon"] = (
        # user_id IS NOT NULL mirrors the engine's bucketed count stage
        # (pandas groupby drops null keys) — symmetric null-key semantics
        "WITH c AS (SELECT user_id, COUNT(*) AS n FROM events "
        "WHERE event_type = 'click' AND user_id IS NOT NULL GROUP BY user_id), "
        "p AS (SELECT user_id, COUNT(*) AS n FROM events "
        "WHERE event_type = 'purchase' AND user_id IS NOT NULL GROUP BY user_id) "
        "SELECT COALESCE(c.user_id, p.user_id) AS user_id, "
        "CAST(COALESCE(c.n, 0) AS BIGINT) AS n_clicks, "
        "CAST(COALESCE(p.n, 0) AS BIGINT) AS n_purchases "
        "FROM c FULL OUTER JOIN p ON c.user_id = p.user_id"
    )
    _aw = ATTRIBUTION_WINDOW_US
    out["attribution_join"] = (
        "WITH c AS (SELECT event_id AS click_event_id, user_id, epoch_us(ts) AS cts "
        "FROM events WHERE event_type = 'click'), "
        "p AS (SELECT event_id AS purchase_event_id, user_id, epoch_us(ts) AS pts "
        "FROM events WHERE event_type = 'purchase') "
        "SELECT c.click_event_id, p.purchase_event_id FROM c JOIN p "
        "ON c.user_id = p.user_id "
        f"AND c.cts BETWEEN p.pts - {_aw} AND p.pts"
    )
    out["lexical_diversity"] = (
        # regexp_extract_all('[a-z0-9]+') == the engine tokenizer (split on
        # [^a-z0-9]+, drop ''): same token streams, so counts are exact
        "SELECT doc_id, CAST(len(regexp_extract_all(lower(coalesce(text, '')), "
        "'[a-z0-9]+')) AS BIGINT) AS n_words, "
        "CAST(len(list_distinct(regexp_extract_all(lower(coalesce(text, '')), "
        "'[a-z0-9]+'))) AS BIGINT) AS n_unique_words FROM documents"
    )
    _pfk = PREFIX_K
    out["boilerplate_prefixes"] = (
        f"WITH d AS (SELECT doc_id, md5(substr(text, 1, {_pfk})) AS p "
        f"FROM documents WHERE text IS NOT NULL AND length(text) >= {_pfk}) "
        "SELECT p AS prefix_md5, COUNT(*) AS n_docs, MIN(doc_id) AS min_doc_id "
        "FROM d GROUP BY p HAVING COUNT(*) >= 2"
    )
    out["dedup_normalized"] = (
        # the RE2 class and space-only trim mirror stages/dedup.normalized_dedup
        "SELECT MIN(doc_id) AS doc_id FROM (SELECT doc_id, "
        "trim(regexp_replace(lower(coalesce(text, '')), '[ \\t\\n\\r]+', ' ', 'g')) AS t "
        "FROM documents) GROUP BY t"
    )
    out["heavy_hitters"] = (
        # c >= ceil(n*t/1000)  <=>  c*1000 >= n*t (integers)
        "SELECT user_id, COUNT(*) AS n FROM events GROUP BY user_id "
        f"HAVING COUNT(*) * 1000 >= (SELECT COUNT(*) FROM events) * {_hh}"
    )
    out["window_distinct"] = (
        "WITH e AS (SELECT event_type, user_id, epoch_us(ts) AS tsu FROM events), "
        "x AS (SELECT event_type, user_id, unnest(range("
        "GREATEST(((tsu - 86400000000) // 43200000000 + 1) * 43200000000, 0), "
        "(tsu // 43200000000) * 43200000000 + 43200000000, 43200000000)) AS ws_us FROM e) "
        "SELECT event_type, ws_us // 1000000 AS window_start, "
        "COUNT(DISTINCT user_id) AS n_distinct "
        "FROM x GROUP BY event_type, ws_us"
    )
    out["left_join_enrich"] = (
        "WITH su AS (SELECT DISTINCT user_id FROM events WHERE event_type = 'signup') "
        "SELECT e.event_type, COUNT(*) AS n_events, "
        "CAST(SUM(CASE WHEN su.user_id IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_signed_up "
        "FROM events e LEFT JOIN su ON su.user_id = e.user_id "
        "GROUP BY e.event_type"
    )
    out["window_tumbling"] = tumbling_oracle()
    out["window_sliding"] = sliding_oracle()
    out["window_session"] = session_oracle()
    out["broadcast_join"] = (
        "SELECT n.n_name AS n_name, COUNT(*) AS n_orders, "
        "CAST(SUM(CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_cents "
        "FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey "
        "JOIN nation n ON c.c_nationkey = n.n_nationkey GROUP BY n.n_name"
    )
    out["bucketed_join"] = (
        "SELECT c.c_mktsegment AS c_mktsegment, COUNT(*) AS n_orders "
        "FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey "
        "GROUP BY c.c_mktsegment"
    )
    out["turn_text_digest"] = (
        f"SELECT conv_id, turn_idx, md5(text) AS text_md5 FROM {_transcripts_table_sql(sf)}"
    )
    out["turn_reindex"] = (
        "SELECT conv_id, "
        "CAST(ROW_NUMBER() OVER (PARTITION BY conv_id ORDER BY ts, turn_idx, "
        "coalesce(md5(text),''), coalesce(role,'')) - 1 AS BIGINT) AS new_turn_idx, "
        "CAST(turn_idx AS BIGINT) AS orig_turn_idx, role, md5(text) AS text_md5 "
        f"FROM {_transcripts_table_sql(sf)}"
    )
    # FULL-ROW snapshot fingerprint (stages/assembly.py:snapshot_fingerprints):
    # every turn column participates so ts/tool/turn-index edits flip the
    # conversation to 'changed'; the line string IS the sort key (total order
    # over the multiset, byte-identical in pandas and DuckDB)
    _fp_line = (
        "coalesce(CAST(turn_idx AS VARCHAR),'') || '|' || coalesce(role,'') "
        "|| '|' || coalesce(md5(text),'') || '|' || coalesce(tool,'') "
        "|| '|' || coalesce(CAST(epoch_us(ts) AS VARCHAR),'')"
    )
    _fp_agg = f"md5(string_agg({_fp_line}, chr(10) ORDER BY {_fp_line})) AS fp_md5"
    # NULL-conv rows roll up under the reserved marker key so the diff
    # detects changes to them (stages/assembly.py:NULL_CONV_MARKER)
    from ..stages.assembly import NULL_CONV_MARKER as _NCM

    _conv_key = f"COALESCE(conv_id, '{_NCM}')"
    out["changed_conversations"] = (
        f"WITH t AS (SELECT * FROM {_transcripts_table_sql(sf)}), "
        "r AS (SELECT conv_id, turn_idx, role, "
        "CASE WHEN turn_idx % 11 = 5 THEN coalesce(text,'') || ' v2' ELSE text END AS text, "
        "tool, ts FROM t WHERE turn_idx % 7 <> 3 "
        "UNION ALL SELECT conv_id || '_new' AS conv_id, turn_idx, role, text, tool, ts "
        "FROM t WHERE conv_id LIKE '%7'), "
        f"dl AS (SELECT {_conv_key} AS conv_id, {_fp_agg} FROM t GROUP BY {_conv_key}), "
        f"dr AS (SELECT {_conv_key} AS conv_id, {_fp_agg} FROM r GROUP BY {_conv_key}) "
        "SELECT coalesce(dl.conv_id, dr.conv_id) AS conv_id, "
        "CASE WHEN dl.conv_id IS NULL THEN 'added' "
        "WHEN dr.conv_id IS NULL THEN 'removed' "
        "WHEN dl.fp_md5 = dr.fp_md5 THEN 'same' ELSE 'changed' END AS status "
        "FROM dl FULL OUTER JOIN dr ON dl.conv_id = dr.conv_id"
    )
    _spec = transcript_spec()
    _kinds = column_kinds_for_transcripts()
    _t = _transcripts_table_sql(sf)
    out["clean_conversations"] = (
        f"WITH v AS ({scalar_violations_sql(_spec, _t, _kinds)} "
        f"UNION ALL {conversation_violations_sql(_spec, _t)}), "
        "vk AS (SELECT DISTINCT regexp_replace(event_id, ':[^:]*$', '') AS conv_id FROM v) "
        f"SELECT t.conv_id, CAST(COUNT(*) AS BIGINT) AS n_turns FROM {_t} t "
        "WHERE NOT EXISTS (SELECT 1 FROM vk WHERE vk.conv_id = t.conv_id) "
        "GROUP BY t.conv_id"
    )
    return out
