"""Per-conversation wide checks: uniqueness, contiguity, timestamp ordering,
first-turn role — the referential/ordering rules mandated by the north rule
(absent from the per-record reference engine; SURVEY.md §2.4 J4, §2.7).

The only required shuffle in the engine: ``groupby("conv_id")`` over a
*projected* dataset (never the wide ``text`` column). Ordering is established
inside each group (sort by ``turn_idx``) — cheaper than a global sort and
sufficient for "per-turn text equality under stable turn ordering".

Check semantics (each SQL-expressible, see __ray_entry__.oracle_sql):

- unique:  one violation per (conv_id, turn_idx) with count n > 1
           (expected '1', actual str(n))
- order/contiguity over DISTINCT turn values: min turn != 0 (expected '0'),
           and each adjacent gap (expected str(prev+1), actual str(cur))
- order/ts: a row violates iff ts < max(ts) over rows with STRICTLY smaller
           turn_idx (null ts ignored) — identical to SQL
           MAX(ts) OVER (PARTITION BY conv ORDER BY turn_idx
                         RANGE BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING).
           expected/actual are epoch-microsecond strings (format-stable).
- ref/first_role: no row at the min turn has the required role
           (actual = lexicographic min of non-null roles at the min turn)
- alt (order.alternate): consecutive DISTINCT turns must not repeat a role
           from the set; a turn's role = MIN of its rows' non-null roles
           (deterministic under duplicates); all-null turns are skipped

One path, exact under single-conversation skew (two-phase salting per
DS2/ICDE'21, see PAPERS.md):

- Hot set (``detect_skew``): a map-only pass over ``conv_id`` — per-block
  value counts, no shuffle — marks a conversation hot when some block holds
  at least ``chunk`` of its rows. The driver pull is bounded by
  Σ rows / ``chunk``.
- Salt: ``chunk = max(turn_idx // chunk, 0)`` for hot conversations, 0 for
  all others. Row count, not turn value, decides salting, so a sparse
  conversation with a huge turn gap stays whole.
- Phase 1 is one keyed exchange (``stages/exchange.py``) by
  ``(conv_id, chunk)``, so one task checks thousands of groups vectorized
  (``BucketChecker``). A cold conversation is
  one whole group and is finalized there. Each slice of a hot conversation
  runs the within-slice checks (exact: equal turn values share a slice) and
  emits one packed summary row (``SUMMARY_FIELDS``); chunk>0 slices carry
  their per-row (turn_idx, ts) payload.
- Phase 2 runs only when the hot set is non-empty. It merges the hot
  conversations' summaries in an exchange keyed by conversation
  (``_Phase2Packed``): min
  turn, first role, cross-chunk gaps and alternation, and cross-chunk ts
  order re-checked from the payloads against the global prefix max — no
  second corpus scan. Phase 1's ts rows of those suspect chunks are dropped
  (their expected understates the global max) before phase 2's corrected
  rows are unioned in.

The output is the same whatever the hot set holds; the hot set only bounds
how many rows of one conversation a single task holds.
"""

from __future__ import annotations

import datetime as _dt

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..spec import Spec
from .exchange import exchange
from .validate import DEFAULT_RUN_TS, VIOLATION_SCHEMA

_NEG_INF = np.iinfo(np.int64).min

#: packed per-chunk summary layout (phase 1 -> phase 2): SEP-joined values in
#: SUMMARY_FIELDS order, "" = null. Packed/unpacked with VECTORIZED string
#: kernels — replaces the per-row json.dumps/json.loads round trip.
SUMMARY_SEP = "\x1f"
SUMMARY_FIELDS = [
    "min_turn",
    "max_turn",
    "max_ts",
    "min_ts",
    "chunk",
    "first_ok",
    "min_role",
    "alt_first_turn",
    "alt_first_role",
    "alt_last_role",
    # chunk>0 slices only: per-ROW turn_idx / ts-µs CSVs ("" = null ts) in the
    # slice. Only chunk>0 groups can ever be ts-order SUSPECTS (a chunk with
    # no earlier chunk cannot undercut one), so carrying their rows lets
    # phase 2 emit the corrected cross-chunk ts violations directly, with no
    # second corpus scan. Volume is bounded by the split tail of the hot
    # conversations (turns beyond each one's first chunk).
    "ts_turns",
    "ts_vals",
]


def parse_summary_payload(s: str) -> dict:
    """Decode one packed summary payload (tests/debugging)."""
    d = dict(zip(SUMMARY_FIELDS, s.split(SUMMARY_SEP)))
    out: dict = {}
    for k in ("min_turn", "max_turn", "max_ts", "min_ts", "chunk", "alt_first_turn"):
        v = d.get(k, "")
        out[k] = None if v == "" else int(v)
    fo = d.get("first_ok", "")
    out["first_ok"] = None if fo == "" else fo == "1"
    for k in ("min_role", "alt_first_role", "alt_last_role"):
        out[k] = d.get(k) or None
    return out


def _empty_out() -> dict[str, list]:
    return {name: [] for name in VIOLATION_SCHEMA.names}


def _finish(rows: dict[str, list], run_ts: _dt.datetime) -> pa.Table:
    ts_us = int(run_ts.timestamp() * 1_000_000)
    n = len(rows["event_id"])
    arrays = {}
    for name in VIOLATION_SCHEMA.names:
        typ = VIOLATION_SCHEMA.field(name).type
        if name == "timestamp":
            arrays[name] = pa.array(np.full(n, ts_us, dtype=np.int64), type=typ)
        else:
            arrays[name] = pa.array(rows[name], type=typ)
    return pa.table(arrays, schema=VIOLATION_SCHEMA)


def _emit(rows, eid, field, etype, exp, act, ename, status="error", payload=None):
    rows["event_id"].append(eid)
    rows["field"].append(field)
    rows["error_type"].append(etype)
    rows["expected"].append(exp)
    rows["actual"].append(act)
    rows["timestamp"].append(None)  # filled in _finish
    rows["source_event"].append(None)
    rows["status"].append(status)
    rows["event_name"].append(ename)
    rows["event_data"].append(payload)
    rows["value"].append(None)
    rows["type"].append(None)


def _group_arrays(g: pa.Table):
    turns = g["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
    ts_col = g["ts"]
    ts_valid = ~np.asarray(pc.is_null(ts_col).combine_chunks().to_numpy(zero_copy_only=False))
    ts_us = np.full(len(turns), _NEG_INF, dtype=np.int64)
    if ts_valid.any():
        filled = pc.fill_null(ts_col, pa.scalar(0, type=ts_col.type))
        vals = filled.cast(pa.int64()).combine_chunks().to_numpy(zero_copy_only=False)
        ts_us[ts_valid] = vals[ts_valid]
    roles = g["role"].to_numpy(zero_copy_only=False) if "role" in g.schema.names else None
    return turns, ts_us, ts_valid, roles


def _check_turn_block(
    rows: dict[str, list],
    conv: str,
    ename: str,
    turns: np.ndarray,
    ts_us: np.ndarray,
    ts_valid: np.ndarray,
    spec: Spec,
):
    """All checks of one whole conversation except the first role."""
    order = spec.table.order
    uq, inv, counts = np.unique(turns, return_inverse=True, return_counts=True)

    if spec.table.unique:
        for t, c in zip(uq[counts > 1], counts[counts > 1]):
            _emit(rows, f"{conv}:{t}", "turn_idx", "unique", "1", str(c), ename)

    if order and order.contiguous:
        if uq[0] != 0:
            _emit(rows, f"{conv}:{uq[0]}", "turn_idx", "order", "0", str(uq[0]), ename)
        gaps = np.nonzero(np.diff(uq) > 1)[0]
        for gi in gaps:
            _emit(
                rows,
                f"{conv}:{uq[gi + 1]}",
                "turn_idx",
                "order",
                str(uq[gi] + 1),
                str(uq[gi + 1]),
                ename,
            )

    if order and order.ts_monotone and ts_valid.any():
        # max ts per distinct turn (null-aware), prefix-max over smaller turns
        max_per = np.full(len(uq), _NEG_INF, dtype=np.int64)
        np.maximum.at(max_per, inv, ts_us)
        prev_max = np.empty(len(uq), dtype=np.int64)
        prev_max[0] = _NEG_INF
        if len(uq) > 1:
            prev_max[1:] = np.maximum.accumulate(max_per)[:-1]
        pm_row = prev_max[inv]
        viol = ts_valid & (ts_us < pm_row)
        for i in np.nonzero(viol)[0]:
            _emit(
                rows,
                f"{conv}:{turns[i]}",
                "ts",
                "order",
                str(pm_row[i]),
                str(ts_us[i]),
                ename,
            )


def _first_role_info(turns: np.ndarray, roles: np.ndarray, expected: str):
    """(ok, actual) at the block's min turn."""
    at_min = turns == turns.min()
    r = roles[at_min]
    ok = any(x == expected for x in r)
    nn = sorted(x for x in r if x is not None)
    return ok, (nn[0] if nn else None)


class ConversationChecker:
    """map_groups fn with one group = one conversation: the simple reference
    implementation that BucketChecker (many conversations per task, fully
    vectorized) is tested against."""

    def __init__(self, spec: Spec, run_ts: _dt.datetime = DEFAULT_RUN_TS):
        self.spec = spec
        self.run_ts = run_ts
        self.__name__ = type(self).__name__  # Ray's map_groups wrapper requires it

    def __call__(self, g: pa.Table) -> pa.Table:
        conv = g["conv_id"][0].as_py()
        ename = self.spec.event_name
        rows = _empty_out()
        turns, ts_us, ts_valid, roles = _group_arrays(g)
        _check_turn_block(rows, conv, ename, turns, ts_us, ts_valid, self.spec)
        first = self.spec.table.first_role
        if first and roles is not None:
            ok, actual = _first_role_info(turns, roles, first)
            if not ok:
                _emit(
                    rows,
                    f"{conv}:{turns.min()}",
                    "role",
                    "ref",
                    f"first_role={first}",
                    actual,
                    ename,
                )
        return _finish(rows, self.run_ts)



class _VecRows:
    """Vectorized violation-row accumulator (numpy object arrays, no per-row
    Python appends)."""

    def __init__(self):
        self.parts: list[dict] = []

    def add(self, eid, field, etype, expected, actual, ename, status="error", payload=None):
        eid = np.asarray(eid, dtype=object)
        n = len(eid)
        if n == 0:
            return

        def arr(x):
            if isinstance(x, (np.ndarray, list)):
                return np.asarray(x, dtype=object)
            if hasattr(x, "to_numpy"):
                return x.to_numpy(dtype=object, na_value=None)
            return np.full(n, x, dtype=object)

        self.parts.append(
            {
                "event_id": eid,
                "field": arr(field),
                "error_type": arr(etype),
                "expected": arr(expected),
                "actual": arr(actual),
                "event_name": arr(ename),
                "status": arr(status),
                "event_data": arr(payload),
            }
        )

    def to_table(self, run_ts: _dt.datetime) -> pa.Table:
        ts_us = int(run_ts.timestamp() * 1_000_000)
        n = sum(len(p["event_id"]) for p in self.parts)
        cols = ("event_id", "field", "error_type", "expected", "actual", "event_name", "status", "event_data")
        cat = {
            c: (np.concatenate([p[c] for p in self.parts]) if self.parts else np.empty(0, dtype=object))
            for c in cols
        }
        arrays = {}
        for name in VIOLATION_SCHEMA.names:
            typ = VIOLATION_SCHEMA.field(name).type
            if name == "timestamp":
                arrays[name] = pa.array(np.full(n, ts_us, dtype=np.int64), type=typ)
            elif name in cat:
                arrays[name] = pa.array(cat[name], type=typ)
            else:
                arrays[name] = pa.nulls(n, type=typ)
        return pa.table(arrays, schema=VIOLATION_SCHEMA)


class BucketChecker:
    """Vectorized multi-conversation checker: one call processes a whole hash
    bucket of conversations with pandas/numpy C kernels (groupby cummax /
    shift), avoiding Ray's per-group UDF dispatch — ~50k tiny conversations
    per second per core instead of ~5k.

    The mode comes from the input columns. Without a `chunk` column every
    group is one whole conversation. With the `chunk` (≥ 0) and `hot` columns
    of `conversation_violations`' salt map, a group is one (conv_id, chunk)
    slice: a cold conversation sits whole in chunk 0 and is checked as
    above, while each slice of a hot conversation runs the within-slice
    checks and emits one packed summary row; phase 2 owns a hot
    conversation's min-turn, first-role and cross-slice checks."""

    def __init__(self, spec: Spec, run_ts: _dt.datetime = DEFAULT_RUN_TS):
        self.spec = spec
        self.run_ts = run_ts

    def __call__(self, df) -> pa.Table:
        import pandas as pd

        spec = self.spec
        ename = spec.event_name
        order = spec.table.order
        out = _VecRows()
        has_role = "role" in df.columns
        ts_name = order.ts_column if order else "ts"
        has_ts = ts_name in df.columns

        if not len(df):
            return out.to_table(self.run_ts)

        # single int64 composite group key: factorized conv_id (+ chunk)
        # — every internal sort / groupby / merge runs on int keys; the string
        # conv_id only materializes for the (small) violation/summary outputs
        codes, conv_index = pd.factorize(df["conv_id"], sort=False)
        if (codes < 0).any():
            # defense in depth: _project drops NULL-conv rows before the
            # shuffle, but a direct caller must not hit factorize's -1
            # sentinel (conv_arr[-1] would misattribute to the LAST conv)
            keep = codes >= 0
            df = df[keep].reset_index(drop=True)
            codes = codes[keep]
            if not len(df):
                return out.to_table(self.run_ts)
        hot_conv = np.zeros(len(conv_index), dtype=bool)
        if "chunk" in df.columns:
            chunk_np = df["chunk"].to_numpy().astype(np.int64)
            factor = int(chunk_np.max()) + 1
            gkey = codes.astype(np.int64) * factor + chunk_np
            hot_conv[codes[df["hot"].to_numpy(dtype=bool)]] = True
        else:
            factor = 1
            gkey = codes.astype(np.int64)
        any_hot = bool(hot_conv.any())
        df = df.assign(_g=gkey)
        conv_arr = np.asarray(conv_index, dtype=object)

        def conv_of(gvals) -> pd.Series:
            return pd.Series(conv_arr[np.asarray(gvals, dtype=np.int64) // factor])

        def hot_of(gvals) -> np.ndarray:
            return hot_conv[np.asarray(gvals, dtype=np.int64) // factor]

        df = df.sort_values(["_g", "turn_idx"], kind="stable").reset_index(drop=True)
        if has_ts:
            s = pd.to_datetime(df[ts_name])
            vals = s.astype("int64")
            if str(s.dtype).startswith("datetime64[ns"):
                vals = vals // 1000  # epoch MICROseconds everywhere
            ts = vals.where(s.notna()).astype("float64")
        else:
            ts = pd.Series(np.nan, index=df.index)

        # per-(group, turn) frame: count + max ts (C groupby)
        key = ["_g", "turn_idx"]
        agg = (
            pd.DataFrame({"_g": df["_g"], "turn_idx": df["turn_idx"], "_ts": ts})
            .groupby(key, sort=True)
            .agg(n=("_ts", "size"), max_ts=("_ts", "max"))
            .reset_index()
        )
        agg_hot = hot_of(agg["_g"])

        def eid_of(frame) -> np.ndarray:
            return (
                conv_of(frame["_g"]).astype(str).to_numpy(dtype=object)
                + ":"
                + frame["turn_idx"].astype(str).to_numpy(dtype=object)
            )

        if spec.table.unique:
            dup = agg[agg["n"] > 1]
            out.add(eid_of(dup), "turn_idx", "unique", "1", dup["n"].astype(str), ename)

        gb = agg.groupby("_g", sort=False)
        if order and order.contiguous:
            prev_turn = gb["turn_idx"].shift(1)
            first_row = prev_turn.isna()
            # min turn of a whole conversation; phase 2 checks the hot ones
            m = first_row & (agg["turn_idx"] != 0) & ~agg_hot
            sel = agg[m]
            out.add(eid_of(sel), "turn_idx", "order", "0", sel["turn_idx"].astype(str), ename)
            m = (~first_row) & (agg["turn_idx"] - prev_turn > 1)
            sel = agg[m]
            out.add(
                eid_of(sel),
                "turn_idx",
                "order",
                (prev_turn[m].astype("int64") + 1).astype(str),
                sel["turn_idx"].astype(str),
                ename,
            )

        if order and order.ts_monotone and has_ts:
            # prefix max of per-turn max ts over strictly smaller turns.
            # fillna(-inf) first: pandas cummax leaves NaN at all-null turns,
            # and shift(1) would then feed NaN prevmax to the next turn,
            # silently masking real disorder there
            filled = agg["max_ts"].fillna(float("-inf"))
            cummax = filled.groupby(agg["_g"], sort=False).cummax()
            agg["prevmax"] = cummax.groupby(agg["_g"], sort=False).shift(1)
            joined = df.merge(agg[key + ["prevmax"]], on=key, how="left", sort=False)
            m = ts.notna().to_numpy() & (ts.to_numpy() < joined["prevmax"].to_numpy())
            sel = joined[m]
            out.add(
                eid_of(sel),
                ts_name,
                "order",
                sel["prevmax"].astype("int64").astype(str),
                ts[m].astype("int64").astype(str),
                ename,
            )

        alt_summary = None
        if order and order.alternate and has_role:
            # role-alternation (J4): the role of a DISTINCT turn is the MIN of
            # its rows' non-null roles; violation when consecutive turns share
            # a role from the alternate set
            nn = df.dropna(subset=["role"])
            tr = (
                nn.groupby(key, sort=True)["role"].min().rename("turn_role").reset_index()
            )
            prev = tr.groupby("_g", sort=False)["turn_role"].shift(1)
            m = (
                tr["turn_role"].notna()
                & prev.notna()
                & (tr["turn_role"] == prev)
                & tr["turn_role"].isin(order.alternate)
            )
            sel = tr[m]
            out.add(
                eid_of(sel),
                "role",
                "alt",
                "alternating " + "|".join(order.alternate),
                sel["turn_role"],
                ename,
            )
            if any_hot:
                g2 = tr[hot_of(tr["_g"])].groupby("_g", sort=False)
                alt_summary = pd.DataFrame(
                    {
                        "alt_first_turn": g2["turn_idx"].first(),
                        "alt_first_role": g2["turn_role"].first(),
                        "alt_last_role": g2["turn_role"].last(),
                    }
                )

        first = spec.table.first_role
        first_summary = None
        if first and has_role:
            min_turn = gb["turn_idx"].first().rename("min_turn")  # agg sorted by turn
            heads = agg.merge(min_turn.reset_index(), on="_g", sort=False)
            at_min = df.merge(
                heads.loc[heads["turn_idx"] == heads["min_turn"], key],
                on=key,
                how="inner",
                sort=False,
            )
            am = at_min.assign(_hit=at_min["role"].eq(first))
            info = am.groupby("_g", sort=False).agg(
                hit=("_hit", "any"), mturn=("turn_idx", "first")
            )
            # min over NON-NULL roles only, taken on sorted factorize codes:
            # an object-dtype groupby min falls back to pandas' per-group
            # Python loop; groups that are all-null stay absent -> None
            rcodes, rvals = pd.factorize(am["role"], sort=True)
            nn = rcodes >= 0
            min_code = pd.Series(rcodes[nn]).groupby(am["_g"].to_numpy()[nn], sort=False).min()
            min_role = pd.Series(
                np.asarray(rvals, dtype=object)[min_code.to_numpy()],
                index=min_code.index,
                name="min_role",
            )
            info = info.join(min_role).reset_index()
            info["min_role"] = info["min_role"].where(info["min_role"].notna(), None)
            info_hot = hot_of(info["_g"])
            bad = info[~info["hit"] & ~info_hot]
            out.add(
                (
                    conv_of(bad["_g"]).astype(str).to_numpy(dtype=object)
                    + ":"
                    + bad["mturn"].astype(str).to_numpy(dtype=object)
                ),
                "role",
                "ref",
                f"first_role={first}",
                bad["min_role"],
                ename,
            )
            first_summary = info[info_hot].set_index("_g")[["hit", "min_role"]].rename(
                columns={"hit": "first_ok"}
            )

        if any_hot:
            # one packed summary row per slice of a hot conversation
            agg_h = agg[agg_hot].groupby("_g", sort=False)
            row_hot = hot_of(df["_g"])
            stats = pd.DataFrame(
                {
                    "min_turn": agg_h["turn_idx"].min(),
                    "max_turn": agg_h["turn_idx"].max(),
                    "max_ts": agg_h["max_ts"].max(),
                    "min_ts": ts[row_hot].groupby(df["_g"][row_hot], sort=False).min(),
                }
            )
            for extra in (first_summary, alt_summary):
                if extra is not None:
                    stats = stats.join(extra)
            split_rows = df["chunk"].to_numpy() > 0
            if order and order.ts_monotone and has_ts and split_rows.any():
                # chunk>0 slices (the split tail, and the only possible ts
                # suspects) carry their per-row (turn_idx, ts) CSVs so phase
                # 2 can finalize cross-chunk ts checks without a corpus
                # rescan; cold conversations are all chunk 0
                tsub = ts.to_numpy()[split_rows]
                vstr = np.where(
                    np.isnan(tsub), "", np.nan_to_num(tsub).astype(np.int64).astype(str)
                ).astype(object)
                sub = pd.DataFrame(
                    {
                        "_g": df["_g"].to_numpy()[split_rows],
                        "t": df["turn_idx"].to_numpy()[split_rows].astype(np.int64).astype(str),
                        "v": vstr,
                    }
                )
                stats = stats.join(
                    sub.groupby("_g", sort=False).agg(
                        ts_turns=("t", ",".join), ts_vals=("v", ",".join)
                    )
                )
            eids, convs, payloads = _pack_summaries(stats, conv_arr, factor)
            out.add(eids, None, "summary", None, None, convs, status="summary", payload=payloads)
        return out.to_table(self.run_ts)


def _pack_summaries(stats, conv_arr: np.ndarray, factor: int):
    """Per-slice stats (indexed by the composite group key) -> the summary
    rows' (event_id f"{conv}:{chunk}", conv, packed payload): SUMMARY_FIELDS
    joined by SUMMARY_SEP, "" = null."""
    import pandas as pd

    gv = stats.index.to_numpy(dtype=np.int64)
    stats = stats.reset_index(drop=True)
    stats["chunk"] = gv % factor
    cols = []
    for c in SUMMARY_FIELDS:
        if c not in stats.columns:
            col = np.full(len(stats), "", dtype=object)
        elif c == "first_ok":
            col = np.where(stats[c].astype(bool), "1", "0").astype(object)
        elif c in ("min_role", "alt_first_role", "alt_last_role", "ts_turns", "ts_vals"):
            col = stats[c].fillna("").astype(str).to_numpy(dtype=object)
        else:
            v = pd.to_numeric(stats[c], errors="coerce").to_numpy(dtype="float64")
            col = np.where(np.isnan(v), 0, v).astype(np.int64).astype(str).astype(object)
            col[np.isnan(v)] = ""
        cols.append(pd.Series(col))
    payloads = cols[0].str.cat(cols[1:], sep=SUMMARY_SEP).to_numpy(dtype=object)
    conv_vals = conv_arr[gv // factor]
    chunk_str = cols[SUMMARY_FIELDS.index("chunk")].to_numpy()
    eids = pd.Series(conv_vals).astype(str).to_numpy(dtype=object) + ":" + chunk_str
    return eids, conv_vals, payloads


def _project(ds, spec: Spec):
    cols = ["conv_id", "turn_idx"]
    if spec.table.order and spec.table.order.ts_monotone:
        cols.append(spec.table.order.ts_column)
    if spec.table.first_role or (spec.table.order and spec.table.order.alternate):
        cols.append("role")
    projected = ds.select_columns(sorted(set(cols), key=cols.index))

    def drop_unplaceable(t: pa.Table) -> pa.Table:
        # rows with NULL conv_id / NULL turn_idx cannot be placed in the
        # uniqueness/order lattice (and pd.factorize would misattribute a
        # NULL conv to the LAST conv in the bucket via its -1 sentinel);
        # each is already a scalar-plane type violation. The SQL twin
        # excludes them symmetrically (sqlgen.conversation_violations_sql).
        import pyarrow.compute as pc

        return t.filter(
            pc.and_(pc.is_valid(t["conv_id"]), pc.is_valid(t["turn_idx"]))
        )

    return projected.map_batches(drop_unplaceable, batch_format="pyarrow")


def detect_skew(ds, chunk: int = 10_000) -> tuple[int, list]:
    """(rows seen, hot set): the hot set is the sorted conv_ids of which
    some block holds at least `chunk` rows. Map-only (per-block value
    counts, no shuffle); the driver pull is bounded by Σ rows / `chunk`
    + blocks (`sketches.local_frequency_candidates`)."""
    from .sketches import local_frequency_candidates

    n_rows, pulled = local_frequency_candidates(ds, "conv_id", lambda _nb: chunk)
    return n_rows, sorted(set(pulled))


def _phase1(ds, spec: Spec, run_ts: _dt.datetime, hot: list, chunk: int):
    """Within-slice violation rows plus one packed summary row per slice of
    a hot conversation."""
    hot_arr = pa.array(hot)

    def add_salt(t: pa.Table) -> pa.Table:
        # max(turn_idx // chunk, 0) for hot conversations, 0 for the rest.
        # The clamp makes truncating division equal to floor division and
        # keeps dirty NEGATIVE turn_idx in chunk 0 with its conversation's
        # head
        is_hot = pc.fill_null(
            pc.is_in(t["conv_id"], value_set=hot_arr.cast(t.schema.field("conv_id").type)),
            False,
        )
        salt = pc.max_element_wise(
            pc.divide(pc.cast(t["turn_idx"], pa.int64()), chunk),
            pa.scalar(0, pa.int64()),
        )
        salt = pc.if_else(is_hot, salt, pa.scalar(0, pa.int64()))
        return t.append_column("chunk", salt).append_column("hot", is_hot)

    salted = _project(ds, spec).map_batches(add_salt, batch_format="pyarrow")
    return exchange(salted, ["conv_id", "chunk"], BucketChecker(spec, run_ts))


def conversation_violations(
    ds,
    spec: Spec,
    run_ts: _dt.datetime = DEFAULT_RUN_TS,
    chunk: int = 10_000,
):
    """Per-conversation wide checks; no task holds more than about `chunk`
    rows of one hot conversation. Exact whatever the hot set holds: a cold
    conversation is checked whole in one group, and row count (not turn
    value) decides salting, so sparse gap conversations stay cold.

    Phase 1 is keyed by (conv_id, chunk). Phase 2 runs only when the hot set
    is non-empty: it merges the hot conversations' packed summaries keyed by
    conversation, then drops phase 1's ts rows of suspect chunks and
    unions phase 2's corrected rows."""
    import ray
    import ray.data as rd

    n_rows, hot = detect_skew(ds, chunk)
    if not n_rows:
        # an empty exchange output carries no schema
        return rd.from_arrow(VIOLATION_SCHEMA.empty_table())
    phase1 = _phase1(ds, spec, run_ts, hot, chunk)
    if not hot:
        return phase1
    # materialized: tiny vs the input, consumed twice
    phase1 = phase1.materialize()
    summaries = phase1.filter(expr="status == 'summary'")
    p2 = exchange(summaries, "event_name", _Phase2Packed(spec, run_ts))
    # only phase 2's issue-bounded OUTPUT (cross-chunk violations + suspect
    # markers of hot conversations) reaches the driver
    p2_tbl = pa.Table.from_pylist(p2.take_all(), schema=VIOLATION_SCHEMA)
    err2 = p2_tbl.filter(pc.equal(p2_tbl["status"], "error"))
    sus = p2_tbl.filter(pc.equal(p2_tbl["status"], "suspect"))
    out = phase1.filter(expr="status == 'error'")
    if sus.num_rows:
        # phase 2's payload re-check owns ALL ts-order rows of suspect chunks
        # (in err2): drop phase 1's, whose `expected` is only the WITHIN-chunk
        # prefix max. Keys travel via the object store, never a literal
        # expression
        suspect_ref = ray.put(frozenset(sus["event_id"].to_pylist()))
        ts_name = spec.table.order.ts_column if spec.table.order else "ts"

        def drop_suspect_ts(df: "pd.DataFrame") -> pa.Table:
            keys = suspect_ref
            if isinstance(keys, ray.ObjectRef):
                keys = ray.get(keys)
            is_ts = (df["field"] == ts_name) & (df["error_type"] == "order")
            if is_ts.any():
                split = df.loc[is_ts, "event_id"].str.rsplit(":", n=1)
                ch = (split.str[1].astype("int64") // chunk).clip(lower=0).astype(str)
                drop = is_ts.copy()
                drop.loc[is_ts] = (split.str[0] + ":" + ch).isin(keys)
                df = df[~drop]
            # ARROW in the canonical schema so the union below mixes no
            # pandas-vs-arrow block representations
            return _violation_table(df)

        out = out.map_batches(drop_suspect_ts, batch_format="pandas")
    # union phase 2's corrected rows only AFTER the drop: they live in
    # suspect chunks by construction and must survive
    if err2.num_rows:
        out = out.union(rd.from_arrow(err2))
    return out


#: the registry name `conversation_checks_salted` and the benchmarks call it
conversation_violations_salted = conversation_violations


# ---------------------------------------------------------------------------
# Phase 2: boundary merge of hot conversations' slice summaries
# ---------------------------------------------------------------------------


def _violation_table(df: "pd.DataFrame") -> pa.Table:
    """Pandas violation rows -> Arrow in the canonical VIOLATION_SCHEMA (the
    union downstream must never mix pandas- and arrow-backed blocks)."""
    tbl = pa.Table.from_pandas(df, preserve_index=False)
    arrays = {
        name: tbl[name].cast(VIOLATION_SCHEMA.field(name).type)
        for name in VIOLATION_SCHEMA.names
    }
    return pa.table(arrays, schema=VIOLATION_SCHEMA)


def _unpack_summaries(df: "pd.DataFrame") -> "pd.DataFrame":
    """Packed summary rows (event_name=conv, event_data=payload) -> one
    structured frame (vectorized split; no per-row JSON)."""
    import pandas as pd

    parts = df["event_data"].str.split(SUMMARY_SEP, expand=True)
    parts.columns = SUMMARY_FIELDS
    out = parts.where(parts != "").assign(conv=df["event_name"])
    for c in ("min_turn", "max_turn", "max_ts", "min_ts", "chunk", "alt_first_turn"):
        out[c] = pd.to_numeric(out[c])
    return out


class _Phase2Packed:
    """Phase 2 over one conv-hash bucket of PACKED hot-conversation summary
    rows: unpacks them and merges chunk boundaries with vectorized pandas
    kernels (shift / cummax / ffill carry) — min-turn-zero, cross-chunk
    contiguity, first-role and alternation-carry violations, plus
    `status='suspect'` marker rows (event_id=f"{conv}:{chunk}",
    expected=str(prefix_max)) driving the phase-1 suspect ts-row drop, plus
    the corrected cross-chunk ts-order rows re-checked from the chunk>0
    summaries' carried (turn_idx, ts) payloads."""

    def __init__(self, spec: Spec, run_ts: _dt.datetime):
        self.spec = spec
        self.run_ts = run_ts

    def __call__(self, df: "pd.DataFrame") -> pa.Table:
        import pandas as pd

        spec = self.spec
        ename = spec.event_name
        order = spec.table.order
        out = _VecRows()
        df = _unpack_summaries(df).sort_values(["conv", "chunk"]).reset_index(drop=True)
        g = df.groupby("conv", sort=False)
        first = (g.cumcount() == 0).to_numpy()
        conv = df["conv"].astype(str)

        def eid(mask: np.ndarray, turns: "pd.Series") -> np.ndarray:
            return (
                conv[mask] + ":" + turns[mask].astype("int64").astype(str)
            ).to_numpy(dtype=object)

        if order and order.contiguous:
            m = first & (df["min_turn"] != 0).to_numpy()
            out.add(
                eid(m, df["min_turn"]),
                "turn_idx",
                "order",
                "0",
                df.loc[m, "min_turn"].astype("int64").astype(str),
                ename,
            )
            prev_max = g["max_turn"].shift(1)
            m = (~first) & ((df["min_turn"] - prev_max) > 1).to_numpy()
            out.add(
                eid(m, df["min_turn"]),
                "turn_idx",
                "order",
                (prev_max[m] + 1).astype("int64").astype(str),
                df.loc[m, "min_turn"].astype("int64").astype(str),
                ename,
            )

        fr = spec.table.first_role
        if fr is not None:
            m = first & (df["first_ok"] == "0").to_numpy()
            out.add(
                eid(m, df["min_turn"]),
                "role",
                "ref",
                f"first_role={fr}",
                df.loc[m, "min_role"],
                ename,
            )

        if order and order.alternate:
            expected = "alternating " + "|".join(order.alternate)
            alt_set = sorted(order.alternate)
            fr_col = df["alt_first_role"]
            # carry = last non-null alt_last_role of EARLIER chunks (roleless
            # chunks don't reset it): shift then ffill within the conversation
            prev_last = g["alt_last_role"].shift(1)
            carry = prev_last.groupby(df["conv"], sort=False).ffill()
            m = (
                fr_col.notna()
                & carry.notna()
                & (fr_col == carry)
                & fr_col.isin(alt_set)
            ).to_numpy()
            out.add(
                eid(m, df["alt_first_turn"]),
                "role",
                "alt",
                expected,
                df.loc[m, "alt_first_role"],
                ename,
            )

        if order and order.ts_monotone:
            # fillna(-inf) first: pandas cummax leaves NaN at all-null-ts
            # chunks, and shift(1) would then feed NaN prefix to the NEXT
            # chunk, silently masking real disorder there (same hazard
            # BucketChecker guards within-chunk)
            cm = (
                df["max_ts"]
                .astype("float64")
                .fillna(float("-inf"))
                .groupby(df["conv"], sort=False)
                .cummax()
            )
            prefix = cm.groupby(df["conv"], sort=False).shift(1)
            min_ts = df["min_ts"].astype("float64")
            m = (prefix.notna() & min_ts.notna() & (min_ts < prefix)).to_numpy()
            # suspect markers: drive the drop of phase 1's within-chunk ts
            # rows for these chunks (their `expected` understates the global
            # prefix max)
            out.add(
                (conv[m] + ":" + df.loc[m, "chunk"].astype("int64").astype(str)).to_numpy(
                    dtype=object
                ),
                None,
                "suspect",
                prefix[m].astype("int64").astype(str),
                None,
                conv[m].to_numpy(dtype=object),
                status="suspect",
            )
            # ...and emit the CORRECTED ts-order rows directly from the
            # chunk's carried (turn_idx, ts) payload. Semantics identical to a
            # whole conversation: a row violates iff ts < max(within-chunk
            # prev-turn max, earlier-chunk prefix max), expected = that
            # effective max.
            if m.any():
                ts_name = order.ts_column or "ts"
                for tcsv, vcsv, conv_s, P in zip(
                    df.loc[m, "ts_turns"],
                    df.loc[m, "ts_vals"],
                    conv[m],
                    prefix[m].to_numpy(dtype="float64"),
                ):
                    if not isinstance(tcsv, str):  # no rows carried
                        continue
                    turns = np.array(tcsv.split(","), dtype=np.int64)
                    vals = np.array(
                        [float(x) if x else np.nan for x in vcsv.split(",")],
                        dtype=np.float64,
                    )
                    o = np.argsort(turns, kind="stable")
                    st, sv = turns[o], vals[o]
                    uturn, inv = np.unique(st, return_inverse=True)
                    filled = np.where(np.isnan(sv), -np.inf, sv)
                    tmax = np.full(len(uturn), -np.inf)
                    np.maximum.at(tmax, inv, filled)
                    run = np.maximum.accumulate(tmax)
                    prevmax = np.concatenate(([-np.inf], run[:-1]))
                    eff = np.maximum(prevmax[inv], P)
                    bad = ~np.isnan(sv) & (sv < eff)
                    if bad.any():
                        out.add(
                            np.array(
                                [f"{conv_s}:{t}" for t in st[bad]], dtype=object
                            ),
                            ts_name,
                            "order",
                            eff[bad].astype(np.int64).astype(str).astype(object),
                            sv[bad].astype(np.int64).astype(str).astype(object),
                            ename,
                        )
        return out.to_table(self.run_ts)
