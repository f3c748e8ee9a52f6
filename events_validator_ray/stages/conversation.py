"""Per-conversation wide checks: uniqueness, contiguity, timestamp ordering,
first-turn role — the referential/ordering rules mandated by the north rule
(absent from the per-record reference engine; SURVEY.md §2.4 J4, §2.7).

The checks need every row of a conversation in one place: one keyed
exchange (``stages/exchange.py``) over a *projected* dataset (never the wide
``text`` column). Ordering is established inside each bucket (a sort by
conversation and ``turn_idx``) — cheaper than a global sort and sufficient
for "per-turn text equality under stable turn ordering".

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

- Hot set: a conversation is hot when some block holds at least ``chunk``
  of its rows (``sketches.frequent_values`` per block, no shuffle); the
  driver pull is bounded by Σ rows / ``chunk``. ``run_validation`` takes it
  from its stage-1 blocks (the ``skew`` argument), so the conversation stage
  executes its input once; other callers run ``detect_skew``, a map-only
  pass over ``conv_id``.
- Salt: ``chunk = max(turn_idx // chunk, 0)`` for hot conversations, 0 for
  all others. Row count, not turn value, decides salting, so a sparse
  conversation with a huge turn gap stays whole.
- Phase 1 is one keyed exchange (``stages/exchange.py``) by
  ``(conv_id, chunk)``, so one task checks thousands of groups vectorized
  (``BucketChecker``: sorted-array arithmetic over an Arrow bucket). A cold
  conversation is one whole group and is finalized there. Each slice of a
  hot conversation runs the within-slice checks (exact: equal turn values
  share a slice) and emits one packed summary row (``SUMMARY_FIELDS``);
  chunk>0 slices carry their per-row (turn_idx, ts) payload instead of
  ts-order rows.
- Phase 2 runs only when the hot set is non-empty. One exchange keyed by
  conversation (``_Phase2Packed``, Arrow in and out) merges each hot
  conversation's slice summaries: min turn, first role, cross-slice gaps
  and alternation. It is the only source of the ts-order rows of chunk>0
  slices: each carried row is checked against max(within-slice prefix, max
  ts of the conversation's earlier slices), in int64, with no second
  corpus scan. The output is phase 1's error rows unioned with phase 2's
  rows; nothing is pulled to the driver.

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

#: the hot rule's row count and the salt's slice width in turns. One
#: constant for both stages of ``run_validation``: stage 1 evaluates the hot
#: rule on its blocks, the conversation stage salts by it.
CHUNK = 10_000

#: packed per-chunk summary layout (phase 1 -> phase 2): SEP-joined values in
#: SUMMARY_FIELDS order, "" = null. Packed/unpacked with VECTORIZED string
#: kernels — replaces the per-row json.dumps/json.loads round trip.
SUMMARY_SEP = "\x1f"
SUMMARY_FIELDS = [
    "min_turn",
    "max_turn",
    "max_ts",
    "chunk",
    "first_ok",
    "min_role",
    "alt_first_turn",
    "alt_first_role",
    "alt_last_role",
    # chunk>0 slices only: per-ROW turn_idx / ts-µs CSVs ("" = null ts) in the
    # slice. Phase 2 owns the ts order of these slices (chunk 0 has no
    # earlier slice, so its within-slice rows are final in phase 1) and
    # checks them from this payload, with no second corpus scan. Volume is
    # bounded by the split tail of the hot conversations (turns beyond each
    # one's first chunk).
    "ts_turns",
    "ts_vals",
]

#: the SUMMARY_FIELDS that hold integers
_INT_FIELDS = ("min_turn", "max_turn", "max_ts", "chunk", "alt_first_turn")


def parse_summary_payload(s: str) -> dict:
    """Decode one packed summary payload (tests/debugging)."""
    d = dict(zip(SUMMARY_FIELDS, s.split(SUMMARY_SEP)))
    out: dict = {}
    for k in _INT_FIELDS:
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


def _ts_us(col) -> tuple[np.ndarray, np.ndarray]:
    """(epoch-µs int64 values, validity) of a timestamp column in any unit
    (ns floors to µs); a null reads as ``_NEG_INF``."""
    ok = pc.is_valid(col).to_numpy(zero_copy_only=False)
    vals = pc.fill_null(col.cast(pa.int64()), 0).to_numpy().astype(np.int64)
    unit = getattr(col.type, "unit", "us")
    vals = vals // 1000 if unit == "ns" else vals * {"s": 1_000_000, "ms": 1_000, "us": 1}[unit]
    vals[~ok] = _NEG_INF
    return vals, ok


def _placeable(t: pa.Table) -> pa.Table:
    """``t`` without its rows with a NULL conv_id or NULL turn_idx: they
    cannot be placed in the uniqueness/order lattice (numpy would read a
    NULL turn as INT64_MIN, and a dictionary code would misattribute a NULL
    conv); each is already a scalar-plane type violation. The SQL twin
    excludes them symmetrically (sqlgen.conversation_violations_sql)."""
    return t.filter(pc.and_(pc.is_valid(t["conv_id"]), pc.is_valid(t["turn_idx"])))


def _group_arrays(g: pa.Table):
    turns = g["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
    ts_us, ts_valid = _ts_us(g["ts"])
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
        g = _placeable(g)
        rows = _empty_out()
        if not g.num_rows:
            return _finish(rows, self.run_ts)
        conv = g["conv_id"][0].as_py()
        ename = self.spec.event_name
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


_ROW_COLS = ("event_id", "field", "error_type", "expected", "actual", "event_name", "status", "event_data")


class _VecRows:
    """Vectorized violation-row accumulator: every column is kept as an Arrow
    string array (no per-row Python appends)."""

    def __init__(self):
        self.parts: list[dict] = []

    def add(self, eid, field, etype, expected, actual, ename, status="error", payload=None):
        n = len(eid)
        if n == 0:
            return

        def arr(x) -> pa.Array:
            if isinstance(x, pa.Array):
                return x.cast(pa.string())
            if x is None or isinstance(x, str):
                return pa.array([x] * n, pa.string())
            return pa.array(x, pa.string(), from_pandas=True)  # ndarray or list

        cols = (eid, field, etype, expected, actual, ename, status, payload)
        self.parts.append(dict(zip(_ROW_COLS, map(arr, cols))))

    def to_table(self, run_ts: _dt.datetime) -> pa.Table:
        ts_us = int(run_ts.timestamp() * 1_000_000)
        n = sum(len(p["event_id"]) for p in self.parts)
        arrays = {}
        for name in VIOLATION_SCHEMA.names:
            typ = VIOLATION_SCHEMA.field(name).type
            if name == "timestamp":
                arrays[name] = pa.array(np.full(n, ts_us, dtype=np.int64), type=typ)
            elif name in _ROW_COLS:
                arrays[name] = pa.chunked_array([p[name] for p in self.parts], typ)
            else:
                arrays[name] = pa.nulls(n, type=typ)
        return pa.table(arrays, schema=VIOLATION_SCHEMA)


def _str(v, null=None) -> pa.Array:
    """Integers -> decimal strings (null where ``null``)."""
    return pc.cast(pa.array(v, mask=null), pa.string())


def _segmented_prev_max(vals: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Per element, the max of the EARLIER elements of its segment (segments
    start where ``first``); ``_NEG_INF`` for a segment's first element. One
    cummax over (segment, dense rank) keys: every key of a segment exceeds
    every key of the segments before it, so the running max never leaks
    across a boundary."""
    uniq, rank = np.unique(vals, return_inverse=True)
    base = (np.cumsum(first) - 1) * len(uniq)
    run = uniq[np.maximum.accumulate(base + rank) - base]  # running max in the segment
    prev = np.r_[_NEG_INF, run[:-1]]
    prev[first] = _NEG_INF
    return prev


class BucketChecker:
    """Vectorized multi-conversation checker: one call checks a whole
    exchange bucket (an Arrow table) with sorted-array arithmetic, no
    per-group dispatch. Conversation codes come from ``dictionary_encode``;
    one ``lexsort`` by (conv, chunk, turn) lays out the slices and their
    (conv, turn) groups, whose counts, max ts and min role are ``reduceat``
    runs; ts order is a segmented prefix max over those groups.

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

    def __call__(self, t: pa.Table) -> pa.Table:
        spec, out = self.spec, _VecRows()
        ename, order, first = spec.event_name, spec.table.order, spec.table.first_role
        t = _placeable(t)  # defense in depth: _project drops them before the shuffle
        n = t.num_rows
        if not n:
            return out.to_table(self.run_ts)
        t = t.combine_chunks()
        enc = pc.dictionary_encode(t["conv_id"].chunk(0))
        names = enc.dictionary.cast(pa.string())
        code = enc.indices.to_numpy().astype(np.int64)
        hot_conv = np.zeros(len(names), dtype=bool)
        if "chunk" in t.schema.names:
            chunk = t["chunk"].to_numpy().astype(np.int64)
            hot_conv[code[t["hot"].to_numpy()]] = True
        else:
            chunk = np.zeros(n, dtype=np.int64)
        turn = t["turn_idx"].to_numpy().astype(np.int64)
        o = np.lexsort((turn, chunk, code))
        code, chunk, turn = code[o], chunk[o], turn[o]

        # slices (conv, chunk) and their turn groups (conv, chunk, turn_idx)
        new_slice = np.r_[True, (code[1:] != code[:-1]) | (chunk[1:] != chunk[:-1])]
        new_turn = new_slice | np.r_[True, turn[1:] != turn[:-1]]
        ti = np.flatnonzero(new_turn)  # turn group -> its first row
        tid = np.cumsum(new_turn) - 1  # row -> turn group
        g_turn, g_code, g_first = turn[ti], code[ti], new_slice[ti]
        g_hot = hot_conv[g_code]
        si = np.flatnonzero(g_first)  # slice -> its min turn group
        sid = np.cumsum(g_first) - 1  # turn group -> slice

        def eid(codes, turns) -> pa.Array:
            return pc.binary_join_element_wise(names.take(codes), _str(turns), ":")

        if spec.table.unique:
            cnt = np.diff(np.r_[ti, n])
            m = cnt > 1
            out.add(eid(g_code[m], g_turn[m]), "turn_idx", "unique", "1", _str(cnt[m]), ename)

        if order and order.contiguous:
            # min turn of a whole conversation; phase 2 checks the hot ones
            m = g_first & (g_turn != 0) & ~g_hot
            out.add(eid(g_code[m], g_turn[m]), "turn_idx", "order", "0", _str(g_turn[m]), ename)
            prev = np.r_[0, g_turn[:-1]]
            m = ~g_first & (g_turn - prev > 1)
            out.add(eid(g_code[m], g_turn[m]), "turn_idx", "order", _str(prev[m] + 1), _str(g_turn[m]), ename)

        ts_name = order.ts_column if order else "ts"
        has_ts = ts_name in t.schema.names
        if has_ts:
            ts, ts_ok = _ts_us(t[ts_name])
            ts, ts_ok = ts[o], ts_ok[o]
        if order and order.ts_monotone and has_ts:
            # prefix max of the per-turn max ts over STRICTLY smaller turns
            row_prev = _segmented_prev_max(np.maximum.reduceat(ts, ti), g_first)[tid]
            m = ts_ok & (ts < row_prev)
            if hot_conv.any():
                # phase 2 owns the ts order of a hot conversation's chunk>0 slices
                m &= ~(hot_conv[code] & (chunk > 0))
            out.add(eid(code[m], turn[m]), ts_name, "order", _str(row_prev[m]), _str(ts[m]), ename)

        has_role = "role" in t.schema.names
        if has_role:
            # roles ranked in code-point (UTF-8 byte) order; a turn's role is
            # the MIN of its rows' non-null roles, NONE when all are null
            renc = pc.dictionary_encode(t["role"].chunk(0))
            srt = pc.array_sort_indices(renc.dictionary)
            by_rank = renc.dictionary.take(srt).cast(pa.string())
            NONE = len(by_rank)
            rank = np.full(NONE + 1, NONE, dtype=np.int64)
            rank[srt.to_numpy()] = np.arange(NONE)
            g_role = np.minimum.reduceat(rank[pc.fill_null(renc.indices, NONE).to_numpy()][o], ti)

            def role_of(r) -> pa.Array:
                return by_rank.take(pa.array(r, mask=r == NONE))

        if first and has_role:
            hit = pc.fill_null(pc.equal(t["role"], first), False).to_numpy(zero_copy_only=False)
            g_hit = np.logical_or.reduceat(hit[o], ti)
            m = g_first & ~g_hit & ~g_hot
            out.add(eid(g_code[m], g_turn[m]), "role", "ref", f"first_role={first}", role_of(g_role[m]), ename)

        alt = order is not None and bool(order.alternate) and has_role
        if alt:
            # consecutive role-bearing turns of a slice must not repeat a role
            # of the alternate set; all-null turns are skipped
            k = np.flatnonzero(g_role != NONE)
            k_role, k_slice = g_role[k], sid[k]
            k_first = np.r_[True, k_slice[1:] != k_slice[:-1]]
            in_alt = pc.is_in(renc.dictionary, pa.array(order.alternate, renc.dictionary.type))
            alt_ranks = rank[:NONE][in_alt.to_numpy(zero_copy_only=False)]
            m = ~k_first & (k_role == np.r_[NONE, k_role[:-1]]) & np.isin(k_role, alt_ranks)
            expected = "alternating " + "|".join(order.alternate)
            out.add(eid(g_code[k][m], g_turn[k][m]), "role", "alt", expected, role_of(k_role[m]), ename)

        hot_s = g_hot[si]
        if not hot_s.any():
            return out.to_table(self.run_ts)
        # one packed summary row per slice of a hot conversation
        rs = ti[si]  # slice -> its first row
        f = dict.fromkeys(SUMMARY_FIELDS, pa.nulls(int(hot_s.sum()), pa.string()))
        f["min_turn"] = _str(g_turn[si][hot_s])
        f["max_turn"] = _str(g_turn[np.r_[si[1:], len(ti)] - 1][hot_s])
        f["chunk"] = _str(chunk[rs][hot_s])
        if has_ts:
            mx = np.maximum.reduceat(ts, rs)[hot_s]
            f["max_ts"] = _str(mx, mx == _NEG_INF)
        if first and has_role:
            f["first_ok"] = pa.array(np.where(g_hit[si][hot_s], "1", "0"))
            f["min_role"] = role_of(g_role[si][hot_s])
        if alt:
            # each slice's first and last role-bearing turn (NONE: it has none)
            k_last = np.r_[k_first[1:], True]
            a_turn, a_first, a_last = np.zeros(len(si), np.int64), np.full(len(si), NONE), np.full(len(si), NONE)
            a_turn[k_slice[k_first]] = g_turn[k][k_first]
            a_first[k_slice[k_first]] = k_role[k_first]
            a_last[k_slice[k_last]] = k_role[k_last]
            f["alt_first_turn"] = _str(a_turn[hot_s], a_first[hot_s] == NONE)
            f["alt_first_role"] = role_of(a_first[hot_s])
            f["alt_last_role"] = role_of(a_last[hot_s])
        split = hot_s & (chunk[rs] > 0)
        if order and order.ts_monotone and has_ts and split.any():
            # chunk>0 slices (the split tail) carry their per-row (turn_idx,
            # ts) CSVs: phase 2 checks their ts order without a corpus
            # rescan; cold conversations are all chunk 0
            rows = split[sid[tid]]
            lens = np.where(split, np.diff(np.r_[rs, n]), 0)[hot_s]
            offsets = pa.array(np.r_[0, np.cumsum(lens)], pa.int32())
            vals = pc.fill_null(_str(ts[rows], ~ts_ok[rows]), "")
            for name, col in (("ts_turns", _str(turn[rows])), ("ts_vals", vals)):
                lists = pa.ListArray.from_arrays(offsets, col, mask=pa.array(~split[hot_s]))
                f[name] = pc.binary_join(lists, ",")
        payload = pc.binary_join_element_wise(
            *f.values(), SUMMARY_SEP, null_handling="replace", null_replacement=""
        )
        convs = names.take(g_code[si][hot_s])
        eids = pc.binary_join_element_wise(convs, f["chunk"], ":")
        out.add(eids, None, "summary", None, None, convs, status="summary", payload=payload)
        return out.to_table(self.run_ts)


def key_columns(spec: Spec) -> list[str]:
    """The input columns the conversation checks read: conv_id and
    turn_idx, the ts column when the spec orders by it, and role when it
    has role rules — never `text`."""
    cols = ["conv_id", "turn_idx"]
    if spec.table.order and spec.table.order.ts_monotone:
        cols.append(spec.table.order.ts_column)
    if spec.table.first_role or (spec.table.order and spec.table.order.alternate):
        cols.append("role")
    return sorted(set(cols), key=cols.index)


def _project(ds, spec: Spec):
    return ds.select_columns(key_columns(spec)).map_batches(_placeable, batch_format="pyarrow")


def detect_skew(ds, chunk: int = CHUNK) -> tuple[int, list]:
    """(rows seen, hot set): the hot set is the sorted conv_ids of which
    some block holds at least `chunk` rows. Map-only (per-block value
    counts, no shuffle); the driver pull is bounded by Σ rows / `chunk`
    + blocks (`sketches.local_frequency_candidates`). ``run_validation``
    takes the same pair from its stage 1 instead."""
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
    return exchange(salted, ["conv_id", "chunk"], BucketChecker(spec, run_ts), batch_format="pyarrow")


def conversation_violations(
    ds,
    spec: Spec,
    run_ts: _dt.datetime = DEFAULT_RUN_TS,
    chunk: int = CHUNK,
    skew: tuple[int, list] | None = None,
):
    """Per-conversation wide checks. Exact whatever the hot set holds: a
    cold conversation is checked whole in one group, and row count (not turn
    value) decides salting, so sparse gap conversations stay cold. A phase-1
    task holds at most about `chunk` rows of one hot conversation; a phase-2
    task holds one hot conversation's slice summaries and the (turn_idx, ts)
    pairs of its chunk>0 slices.

    ``skew`` is the (rows, sorted hot set) pair of ``detect_skew``; a caller
    that already holds it (``run_validation``'s stage 1) passes it in, and
    ``ds`` then executes once.

    Phase 1 is keyed by (conv_id, chunk). Phase 2 runs only when the hot set
    is non-empty: it merges the hot conversations' packed summaries keyed by
    conversation, and its rows are unioned with phase 1's error rows."""
    import ray.data as rd

    n_rows, hot = skew if skew is not None else detect_skew(ds, chunk)
    if not n_rows:
        # an empty exchange output carries no schema
        return rd.from_arrow(VIOLATION_SCHEMA.empty_table())
    phase1 = _phase1(ds, spec, run_ts, hot, chunk)
    if not hot:
        return phase1
    # materialized: tiny vs the input, consumed twice
    phase1 = phase1.materialize()
    summaries = phase1.filter(expr="status == 'summary'")
    p2 = exchange(summaries, "event_name", _Phase2Packed(spec, run_ts), batch_format="pyarrow")
    return phase1.filter(expr="status == 'error'").union(p2)


#: the registry name `conversation_checks_salted` and the benchmarks call it
conversation_violations_salted = conversation_violations


# ---------------------------------------------------------------------------
# Phase 2: boundary merge of hot conversations' slice summaries
# ---------------------------------------------------------------------------


def _blank_null(a: pa.Array) -> pa.Array:
    """A string array with "" read as NULL."""
    return pc.if_else(pc.equal(a, ""), pa.scalar(None, a.type), a)


def _unpack(t: pa.Table) -> dict[str, pa.Array]:
    """Packed summary rows (event_name=conv, event_data=payload) -> ``conv``
    and one array per ``SUMMARY_FIELDS`` entry ("" read as NULL, the integer
    fields as int64), sorted by (conv, chunk). Vectorized string kernels, no
    per-row parse."""
    t = t.combine_chunks()
    parts = pc.split_pattern(t["event_data"].chunk(0), SUMMARY_SEP)
    cols = {"conv": t["event_name"].chunk(0)}
    for i, name in enumerate(SUMMARY_FIELDS):
        v = _blank_null(pc.list_element(parts, i))
        cols[name] = v.cast(pa.int64()) if name in _INT_FIELDS else v
    o = pc.sort_indices(pa.table(cols), [("conv", "ascending"), ("chunk", "ascending")])
    return {k: v.take(o) for k, v in cols.items()}


class _Phase2Packed:
    """Phase 2 over one conv-hash bucket of PACKED hot-conversation summary
    rows, Arrow in and Arrow out. The slices, sorted by (conversation,
    chunk), are merged with numpy: min-turn-zero, cross-slice contiguity,
    first-role and alternation-carry violations. Every ts-order row of the
    chunk>0 slices comes from here, checked from their carried (turn_idx,
    ts) payloads against max(within-slice prefix, max ts of the
    conversation's earlier slices) in int64."""

    def __init__(self, spec: Spec, run_ts: _dt.datetime):
        self.spec = spec
        self.run_ts = run_ts

    def __call__(self, t: pa.Table) -> pa.Table:
        spec, out = self.spec, _VecRows()
        ename, order, fr = spec.event_name, spec.table.order, spec.table.first_role
        s = _unpack(t)
        conv = s["conv"]
        code = pc.dictionary_encode(conv).indices.to_numpy()
        n = len(code)
        first = np.r_[True, code[1:] != code[:-1]]  # a conversation's first slice
        lo, hi = s["min_turn"].to_numpy(), s["max_turn"].to_numpy()

        def eid(slices, turns) -> pa.Array:
            return pc.binary_join_element_wise(conv.take(slices), _str(turns), ":")

        if order and order.contiguous:
            i = np.flatnonzero(first & (lo != 0))
            out.add(eid(i, lo[i]), "turn_idx", "order", "0", _str(lo[i]), ename)
            nxt = np.r_[0, hi[:-1]] + 1
            i = np.flatnonzero(~first & (lo > nxt))
            out.add(eid(i, lo[i]), "turn_idx", "order", _str(nxt[i]), _str(lo[i]), ename)

        if fr is not None:
            miss = pc.fill_null(pc.equal(s["first_ok"], "0"), False).to_numpy(zero_copy_only=False)
            i = np.flatnonzero(first & miss)
            out.add(eid(i, lo[i]), "role", "ref", f"first_role={fr}", s["min_role"].take(i), ename)

        if order and order.alternate:
            # carry = the last non-null alt_last_role of the conversation's
            # EARLIER slices (a roleless slice does not reset it)
            a_first, a_last = s["alt_first_role"], s["alt_last_role"]
            idx = np.arange(n)
            has_last = a_last.is_valid().to_numpy(zero_copy_only=False)
            prev = np.r_[-1, np.maximum.accumulate(np.where(has_last, idx, -1))[:-1]]
            carried = prev >= np.maximum.accumulate(np.where(first, idx, 0))
            same = pc.and_(
                pc.equal(a_first, a_last.take(np.where(carried, prev, 0))),
                pc.is_in(a_first, pa.array(order.alternate, a_first.type)),
            )
            i = np.flatnonzero(carried & pc.fill_null(same, False).to_numpy(zero_copy_only=False))
            a_turn = pc.fill_null(s["alt_first_turn"], 0).to_numpy()
            expected = "alternating " + "|".join(order.alternate)
            out.add(eid(i, a_turn[i]), "role", "alt", expected, a_first.take(i), ename)

        has_rows = s["ts_turns"].is_valid()  # the chunk>0 slices' payloads
        if order and order.ts_monotone and pc.any(has_rows).as_py():
            # max ts of each slice's EARLIER slices in its conversation
            before = _segmented_prev_max(pc.fill_null(s["max_ts"], _NEG_INF).to_numpy(), first)
            turns = pc.split_pattern(s["ts_turns"].filter(has_rows), ",")
            # a one-row slice with a NULL ts packs its ts_vals as ""
            vals = pc.split_pattern(pc.fill_null(s["ts_vals"].filter(has_rows), ""), ",")
            sl = np.flatnonzero(has_rows)[pc.list_parent_indices(turns).to_numpy()]
            turn = pc.list_flatten(turns).cast(pa.int64()).to_numpy()
            v = _blank_null(pc.list_flatten(vals)).cast(pa.int64())
            ts, ts_ok = pc.fill_null(v, _NEG_INF).to_numpy(), v.is_valid().to_numpy(zero_copy_only=False)
            o = np.lexsort((turn, sl))
            sl, turn, ts, ts_ok = sl[o], turn[o], ts[o], ts_ok[o]
            new_slice = np.r_[True, sl[1:] != sl[:-1]]
            new_turn = new_slice | np.r_[True, turn[1:] != turn[:-1]]
            ti = np.flatnonzero(new_turn)
            within = _segmented_prev_max(np.maximum.reduceat(ts, ti), new_slice[ti])[np.cumsum(new_turn) - 1]
            eff = np.maximum(within, before[sl])
            i = np.flatnonzero(ts_ok & (ts < eff))
            out.add(eid(sl[i], turn[i]), order.ts_column, "order", _str(eff[i]), _str(ts[i]), ename)
        return out.to_table(self.run_ts)
