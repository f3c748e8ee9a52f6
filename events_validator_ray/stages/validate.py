"""Vectorized per-turn validation stage (the core operator).

Re-expresses the reference's record-at-a-time `checkWithSchema` walk
(validator_src/helpers/validationHelpers.js:130-164) as ONE
``map_batches(ValidateBatch(spec), batch_format="pyarrow", zero_copy_batch=True)``
stage: the spec is compiled into a list of vectorized branch evaluators
(boolean masks via pyarrow.compute / numpy) once per block schema; each
batch yields an Arrow violations table in the reference's 12-column BigQuery
log shape (terraform_backend/src/bq_schema/bq_schema.json:1-63) — error rows
(loggingHelpers.js:7-20), one `status='valid'` row per clean turn
(logPassed, loggingHelpers.js:22-31), and optional per-field valid rows
(logValidField, loggingHelpers.js:33-46).

JS-semantics mapping onto typed columns (probed behaviors in FIXTURES.md §3):
null -> `typeof null === 'object'` type errors; required empty/whitespace
string -> ("non-empty string", "empty string"); value/enum compare after
bilateral toString; regex is partial-match and string-coercing with the
empty/null -> 'empty_value' short-circuit; length is `(val || []).length`.
Rule order per field: value -> enum -> type -> length -> regex
(validationHelpers.js:155-162, each rule independent).

Scale notes: the stage is embarrassingly parallel, pure (no shared state —
unlike the reference's module-level accumulator arrays, loggingHelpers.js:2-4),
and retry-safe; event ids are deterministic `{conv_id}:{turn_idx}` so retries
are idempotent. Per block, a low-cardinality string column (its own
dictionary, or a `dictionary_encode` when a head probe finds few distinct
values) is tested once per distinct value and gathered back by its codes;
`conv_id` and `text` are tested row by row. Each error column of the log is
one gather over the branches' constants and array values, and the valid
rows' `event_id` is a filter of the block's ids.
"""

from __future__ import annotations

import datetime as _dt
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.kernels import (
    arrow_js_typeof,
    bool_np,
    const_str_array,
    falsy_mask_np,
    is_list_kind,
    is_string_type,
    js_string_cast,
    make_event_id,
    null_mask_np,
    take_np,
    trim_empty_mask_np,
    valid_np,
    value_type,
)
from ..spec import RULE_ORDER, FieldRule, Spec

#: Arrow schema of the violations/log table (12 columns, mirrors bq_schema.json)
VIOLATION_SCHEMA = pa.schema(
    [
        ("event_id", pa.string()),
        ("field", pa.string()),
        ("error_type", pa.string()),
        ("expected", pa.string()),
        ("actual", pa.string()),
        ("timestamp", pa.timestamp("us")),
        ("source_event", pa.string()),
        ("status", pa.string()),
        ("event_name", pa.string()),
        ("event_data", pa.string()),
        ("value", pa.string()),
        ("type", pa.string()),
    ]
)

#: Parquet write options of every violation-log file (``pq.write_table`` /
#: ``Dataset.write_parquet`` kwargs). ``event_id`` is unique per valid row, so
#: a dictionary would repeat every value and add an index per row (95 % of a
#: log file's bytes under Parquet's defaults); the near-constant columns keep
#: theirs, which RLE-encode to almost nothing.
LOG_PARQUET = {
    "compression": "zstd",
    "use_dictionary": [name for name in VIOLATION_SCHEMA.names if name != "event_id"],
}

#: default run timestamp — stamped at the driver, not per row, for determinism
#: (the reference stamps per log call, loggingHelpers.js:15 — non-reproducible).
#: Timezone-AWARE so `.timestamp()` is machine-independent: a naive datetime
#: would resolve in the host's local TZ and shift the log `timestamp` (and
#: date_utc for rows without event-time stamping) across machines.
DEFAULT_RUN_TS = _dt.datetime(2026, 1, 1, 0, 0, 0, tzinfo=_dt.timezone.utc)


@dataclass
class Branch:
    """One homogeneous slice of violations: constant error_type/expected,
    per-row actual (constant or an array aligned with `idx`). `field` is a
    constant for flat columns; nested (list<struct>) violations carry a
    per-row path array (`a[i].id`, validationHelpers.js:39-46) plus
    `field_sort`, the constant base path used for deterministic ordering."""

    idx: np.ndarray
    field: Any  # str | pa.Array aligned with idx
    error_type: str
    expected: str | None
    actual: Any  # str | None | pa.Array aligned with idx
    rule_pos: int  # position in RULE_ORDER (for deterministic output ordering)
    field_sort: str | None = None

    @property
    def sort_field(self) -> str:
        if isinstance(self.field, str):
            return self.field
        return self.field_sort or ""


#: rows of a plain string column whose distinct values the batch context
#: counts before it dictionary-encodes the column (like ``fold.FOLD_ROWS``,
#: no caller sets it)
CODES_PROBE_ROWS = 256

#: largest share of distinct values among the probed rows for which the
#: column is encoded: past it the dictionary would be nearly as long as the
#: block (``conv_id``, ``text``) and the per-value tests would not pay for
#: the encode and the gathers
CODES_MAX_SHARE = 0.25


def _one_array(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    if isinstance(col, pa.Array):
        return col
    return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()


def _codes_of(col: pa.ChunkedArray | pa.Array) -> tuple[np.ndarray, pa.Array] | None:
    """(per-row index into the dictionary, NULL rows one past its end; the
    dictionary) of a string column: its own codes when it arrives
    ``dictionary<string>``, a ``dictionary_encode`` when the column is longer
    than the probe and its head shows few distinct values, None otherwise
    (and for every other type)."""
    t = col.type
    if pa.types.is_dictionary(t):
        if not is_string_type(t.value_type):
            return None
        enc = _one_array(col)
    elif is_string_type(t):
        # a block no longer than the probe is cheaper to test row by row
        if len(col) <= CODES_PROBE_ROWS:
            return None
        head = col.slice(0, CODES_PROBE_ROWS)
        if pc.count_distinct(head).as_py() > CODES_MAX_SHARE * CODES_PROBE_ROWS:
            return None
        enc = _one_array(col.dictionary_encode())
    else:
        return None
    idx = enc.indices
    width = idx.type.bit_width // 8
    codes = np.frombuffer(
        idx.buffers()[1], dtype=f"<i{width}", count=len(idx), offset=idx.offset * width
    ).astype(np.intp)
    if idx.null_count:
        codes[~valid_np(idx)] = len(enc.dictionary)
    return codes, enc.dictionary


class _BatchCtx:
    """Per-batch cache of column masks / casts so independent rules on the same
    column don't recompute them. A low-cardinality string column is tested
    once per distinct value (``per_value``) and gathered back by its codes
    (*Column Sketches*, SIGMOD 2018); any other column row by row."""

    def __init__(self, batch: pa.Table):
        self.batch = batch
        self.n = batch.num_rows
        self._col: dict[str, Any] = {}
        self._codes: dict[str, tuple[np.ndarray, pa.Array] | None] = {}
        self._null: dict[str, np.ndarray] = {}
        self._empty: dict[str, np.ndarray] = {}
        self._str: dict[str, pa.ChunkedArray] = {}

    def col(self, name: str):
        """The column with any dictionary decoded."""
        if name not in self._col:
            col = self.batch[name]
            if pa.types.is_dictionary(col.type):
                col = pc.cast(col, col.type.value_type)
            self._col[name] = col
        return self._col[name]

    def codes(self, name: str, encode: bool = True) -> tuple[np.ndarray, pa.Array] | None:
        """The column's codes (``_codes_of``). With ``encode=False`` only
        codes at hand: the column's own, or an earlier test's encode."""
        if name not in self._codes:
            if not (encode or pa.types.is_dictionary(self.batch[name].type)):
                return None
            self._codes[name] = _codes_of(self.batch[name])
        return self._codes[name]

    def per_value(self, name: str, test: Callable[[Any], np.ndarray], encode: bool = True) -> np.ndarray:
        """``test`` (strings -> numpy bool, NULL -> False) for every row of
        the column: run on the dictionary and gathered by code when the
        column has codes, else on the js-string cast of every row. A test
        that costs no more per row than the encode itself (a compare, the
        blank test) passes ``encode=False`` and takes only codes at hand."""
        codes = self.codes(name, encode)
        if codes is None:
            return test(self.strcast(name))
        idx, dictionary = codes
        return np.append(test(dictionary), False)[idx]

    def strings_at(self, name: str, idx: np.ndarray) -> pa.Array:
        """The js-string values of rows ``idx`` (NULL rows NULL)."""
        codes = self.codes(name, encode=False)
        if codes is None:
            return take_np(self.strcast(name), idx)
        rows, dictionary = codes
        sel = rows[idx]
        return dictionary.take(pa.array(sel, mask=sel == len(dictionary)))

    def null(self, name: str) -> np.ndarray:
        if name not in self._null:
            # a dictionary column's NULLs include rows coding a NULL entry
            codes = self.codes(name, encode=False)
            if codes is None:
                self._null[name] = null_mask_np(self.col(name))
            else:
                idx, dictionary = codes
                self._null[name] = np.append(null_mask_np(dictionary), True)[idx]
        return self._null[name]

    def empty(self, name: str) -> np.ndarray:
        """trim-empty mask (string columns only; False elsewhere)."""
        if name not in self._empty:
            if is_string_type(value_type(self.batch[name].type)):
                self._empty[name] = self.per_value(name, trim_empty_mask_np, encode=False)
            else:
                self._empty[name] = np.zeros(self.n, dtype=bool)
        return self._empty[name]

    def strcast(self, name: str):
        if name not in self._str:
            self._str[name] = js_string_cast(self.col(name))
        return self._str[name]

    def skip(self, name: str, optional: bool) -> np.ndarray:
        """Rows the walk skips entirely: optional && (null || empty string)
        (validationHelpers.js:151-153)."""
        if not optional:
            return np.zeros(self.n, dtype=bool)
        return self.null(name) | self.empty(name)


CheckFn = Callable[[_BatchCtx], list[Branch]]

#: user-extension surface (SURVEY.md §2.10): register a compiler for a new
#: rule kind; any unknown key in a field rule (FieldRule.extra) is dispatched
#: here. A compiler takes (rule, raw_value, schema) and returns a CheckFn
#: producing violation Branches — the analog of "add to validationHelpers.js"
#: (reference AGENTS.md:790-793) without touching engine code.
CUSTOM_CHECKS: dict[str, Callable[["FieldRule", Any, pa.Schema], CheckFn]] = {}


def register_check(kind: str, compiler: Callable[["FieldRule", Any, pa.Schema], CheckFn]) -> None:
    CUSTOM_CHECKS[kind] = compiler


# ---------------------------------------------------------------------------
# nestedSchema over typed Arrow list<struct<…>> / struct columns (SURVEY §1.4)
# ---------------------------------------------------------------------------


def _is_list_type(t: pa.DataType) -> bool:
    return is_list_kind(t)


def _item_indices(parent_idx: np.ndarray) -> np.ndarray:
    """Within-list position of each flattened element (`parent_idx` is the
    non-decreasing output of pc.list_parent_indices)."""
    n = len(parent_idx)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    change = np.r_[True, parent_idx[1:] != parent_idx[:-1]]
    run_starts = np.flatnonzero(change)
    run_lens = np.diff(np.r_[run_starts, n])
    return np.arange(n, dtype=np.int64) - np.repeat(run_starts, run_lens)


def _concat_paths(prefix: Any, field: Any, k: int):
    """prefix + field, each a constant str or a length-k string array."""
    if isinstance(prefix, str) and isinstance(field, str):
        return prefix + field  # stays a constant -> Branch keeps the fast path

    def as_arr(x):
        if isinstance(x, pa.ChunkedArray):
            return x.combine_chunks()
        if isinstance(x, pa.Array):
            return x
        return const_str_array(x, k)

    return pc.binary_join_element_wise(as_arr(prefix), as_arr(field), "")


def _compile_rules(rules: dict[str, "FieldRule"], schema: pa.Schema) -> list[CheckFn]:
    checks: list[CheckFn] = []
    for r in rules.values():
        checks.extend(_compile_field(r, schema))
    return checks


def _run_checks(checks: list[CheckFn], tbl: pa.Table) -> list[Branch]:
    ctx = _BatchCtx(tbl)
    out: list[Branch] = []
    for fn in checks:
        out.extend(fn(ctx))
    return out


def _struct_child_table(arr) -> pa.Table:
    """One flat column per struct field (zero-copy child views)."""
    t = arr.type
    cols = {}
    for i in range(t.num_fields):
        c = pc.struct_field(arr, i)
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        cols[t.field(i).name] = c
    return pa.table(cols)


def _make_object_nested_check(rule: "FieldRule", schema: pa.Schema, pos: dict) -> CheckFn:
    """`nestedSchema` recursion over a typed STRUCT column: child columns via
    pc.struct_field, compiled branch evaluators recursed with the dotted path
    prefix (validationHelpers.js:61-63). Arrow structs cannot represent an
    ABSENT key per row (a field is always present, possibly null), so
    present-with-null semantics apply; ValidateJsonDocs remains the oracle for
    the absent-vs-null distinction on opaque JSON."""
    name = rule.name
    col_type = schema.field(name).type
    child_schema = pa.schema([col_type.field(i) for i in range(col_type.num_fields)])
    child_checks = _compile_rules(rule.nested, child_schema)
    p = pos["type"]

    def object_check(ctx: _BatchCtx) -> list[Branch]:
        out: list[Branch] = []
        nulls = ctx.null(name)
        skip = ctx.skip(name, rule.optional)
        nidx = np.nonzero(nulls & ~skip)[0]
        if nidx.size:
            # typeof null === 'object' -> ('object','object'), vHelpers.js:53-59
            out.append(Branch(nidx, name, "type", "object", "object", p))
        valid = np.nonzero(~nulls)[0]
        if not valid.size:
            return out
        arr = ctx.col(name)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        sub = arr.take(pa.array(valid, type=pa.int64()))
        for b in _run_checks(child_checks, _struct_child_table(sub)):
            k = b.idx.size
            out.append(
                Branch(
                    valid[b.idx],
                    _concat_paths(f"{name}.", b.field, k),
                    b.error_type,
                    b.expected,
                    b.actual,
                    b.rule_pos,
                    field_sort=f"{name}.{b.sort_field}",
                )
            )
        return out

    return object_check


def _make_array_nested_check(rule: "FieldRule", schema: pa.Schema, pos: dict) -> CheckFn:
    """`nestedSchema` recursion over a typed LIST column: `pc.list_flatten` +
    parent indices, item paths `name[i].key` (validationHelpers.js:38-48).
    Struct items walk their fields; scalar items are wrapped `{'': item}` like
    the reference (non-object items, :41-44) — compiling the nested rules
    against the single-column child schema makes keys != '' fall out as
    per-item 'missing'. List / map items emulate the JS property walk
    columnar per rule key (index keys + 'length' on arrays, own keys on
    objects; anything else is an absent property). Null items walk
    `{'': null}`: required keys missing, a '' rule checks the null value."""
    name = rule.name
    col_type = schema.field(name).type
    item_type = col_type.value_type
    p = pos["type"]
    jswalk: str | None = None
    child_checks: list[CheckFn] = []
    jswalk_keys: list[tuple[str, "FieldRule", tuple, list[CheckFn] | None]] = []
    if pa.types.is_struct(item_type):
        child_schema = pa.schema([item_type.field(i) for i in range(item_type.num_fields)])
        wrapped = False
    elif _is_list_type(item_type) or pa.types.is_map(item_type):
        # JS walks array/object items UNWRAPPED via property lookup
        # (validationHelpers.js:38-48 + checkWithSchema hasOwnProperty walk):
        # canonical index keys / 'length' resolve on array items, own keys on
        # object (map) items; any other property is absent -> 'missing'.
        # Emulated columnar per rule key: each key compiles against its
        # resolved value type and runs on the subset of items where the
        # property exists; out-of-range / absent emit the missing branch.
        jswalk = "map" if pa.types.is_map(item_type) else "list"
        wrapped = False
        child_schema = None
        for key, krule in rule.nested.items():
            if jswalk == "list":
                if key == "length":
                    kind: tuple = ("length",)
                    ks = pa.schema([pa.field(key, pa.int64())])
                elif key.isdigit() and str(int(key)) == key:
                    # canonical JS array index ('01' is a plain — absent —
                    # property on an array, not index 1)
                    kind = ("index", int(key))
                    ks = pa.schema([pa.field(key, item_type.value_type)])
                else:
                    kind, ks = ("absent",), None
            else:
                if is_string_type(item_type.key_type):
                    kind = ("mapkey", key)
                    ks = pa.schema([pa.field(key, item_type.item_type)])
                else:
                    kind, ks = ("absent",), None
            checks_k = _compile_rules({key: krule}, ks) if ks is not None else None
            jswalk_keys.append((key, krule, kind, checks_k))
    else:
        child_schema = pa.schema([pa.field("", item_type)])
        wrapped = True
    if child_schema is not None:
        child_checks = _compile_rules(rule.nested, child_schema)
    required_keys = [k for k, r in rule.nested.items() if k != "" and not r.optional]
    # null items walk `{'': null}` (js:41-44): keys != '' go missing (below),
    # but a '' rule sees a PRESENT null value — its checks run against null
    null_item_checks = (
        _compile_rules({"": rule.nested[""]}, pa.schema([pa.field("", pa.null())]))
        if (not wrapped and "" in rule.nested)
        else []
    )

    def array_check(ctx: _BatchCtx) -> list[Branch]:
        out: list[Branch] = []
        nulls = ctx.null(name)
        skip = ctx.skip(name, rule.optional)
        nidx = np.nonzero(nulls & ~skip)[0]
        if nidx.size:
            out.append(Branch(nidx, name, "type", "array", "object", p))
        arr = ctx.col(name)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        parent_idx = (
            pc.list_parent_indices(arr).to_numpy(zero_copy_only=False).astype(np.int64)
        )
        if not parent_idx.size:
            return out
        item_idx = _item_indices(parent_idx)
        flat = pc.list_flatten(arr)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()

        def prefix_for(sel: np.ndarray) -> pa.Array:
            idx_str = pc.cast(pa.array(item_idx[sel], type=pa.int64()), pa.string())
            k = sel.size
            return pc.binary_join_element_wise(
                const_str_array(f"{name}[", k), idx_str, const_str_array("].", k), ""
            )

        def remap(b: Branch, sel: np.ndarray) -> Branch:
            csel = sel[b.idx]
            k = b.idx.size
            return Branch(
                parent_idx[csel],
                _concat_paths(prefix_for(csel), b.field, k),
                b.error_type,
                b.expected,
                b.actual,
                b.rule_pos,
                field_sort=f"{name}[].{b.sort_field}",
            )

        if wrapped:
            sel = np.arange(len(parent_idx), dtype=np.int64)
            child_tbl = pa.table({"": flat})
            out.extend(remap(b, sel) for b in _run_checks(child_checks, child_tbl))
            return out

        item_null = null_mask_np(flat)
        ni = np.nonzero(item_null)[0]
        if ni.size:
            pre = prefix_for(ni)
            for key in required_keys:
                out.append(
                    Branch(
                        parent_idx[ni],
                        _concat_paths(pre, key, ni.size),
                        "missing",
                        "field present",
                        "field missing",
                        -1,
                        field_sort=f"{name}[].{key}",
                    )
                )
            if null_item_checks:
                tbl = pa.table({"": pa.nulls(ni.size)})
                out.extend(remap(b, ni) for b in _run_checks(null_item_checks, tbl))
        vi = np.nonzero(~item_null)[0]
        if not vi.size:
            return out
        sub = flat.take(pa.array(vi, type=pa.int64()))
        if jswalk is None:
            out.extend(
                remap(b, vi) for b in _run_checks(child_checks, _struct_child_table(sub))
            )
            return out

        # JS property walk over array (list) / object (map) items: each rule
        # key runs on the subset of items owning that property; absent
        # properties emit the checkWithSchema missing branch (js:142-146)
        def emit_missing(sel_flat: np.ndarray, key: str) -> None:
            out.append(
                Branch(
                    parent_idx[sel_flat],
                    _concat_paths(prefix_for(sel_flat), key, sel_flat.size),
                    "missing",
                    "field present",
                    "field missing",
                    -1,
                    field_sort=f"{name}[].{key}",
                )
            )

        n_items = len(vi)
        if jswalk == "list":
            lens_np = (
                pc.list_value_length(sub)
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            flat2 = pc.list_flatten(sub)
            if isinstance(flat2, pa.ChunkedArray):
                flat2 = flat2.combine_chunks()
            starts = np.zeros(n_items, dtype=np.int64)
            if n_items > 1:
                np.cumsum(lens_np[:-1], out=starts[1:])
        for key, krule, kind, checks_k in jswalk_keys:
            if kind[0] == "absent":
                if not krule.optional:
                    emit_missing(vi, key)
                continue
            if kind[0] == "length":
                tbl = pa.table({key: pa.array(lens_np, type=pa.int64())})
                out.extend(remap(b, vi) for b in _run_checks(checks_k, tbl))
                continue
            if kind[0] == "index":
                i = kind[1]
                present = lens_np > i
                psel = np.nonzero(present)[0]
                vals = flat2.take(pa.array(starts[psel] + i, type=pa.int64()))
            else:  # mapkey: JSON duplicate keys resolve last-wins
                qk = pa.scalar(kind[1], type=item_type.key_type)
                hits = pc.map_lookup(sub, query_key=qk, occurrence="all")
                hlen = pc.list_value_length(hits).to_numpy(zero_copy_only=False)
                present = ~np.isnan(hlen.astype(np.float64)) & (hlen > 0)
                psel = np.nonzero(present)[0]
                vals = pc.map_lookup(sub, query_key=qk, occurrence="last").take(
                    pa.array(psel, type=pa.int64())
                )
            miss = np.nonzero(~present)[0]
            if miss.size and not krule.optional:
                emit_missing(vi[miss], key)
            if psel.size:
                if isinstance(vals, pa.ChunkedArray):
                    vals = vals.combine_chunks()
                tbl = pa.table({key: vals})
                out.extend(remap(b, vi[psel]) for b in _run_checks(checks_k, tbl))
        return out

    return array_check


def _compile_field(rule: FieldRule, schema: pa.Schema) -> list[CheckFn]:
    """Compile one field rule into vectorized branch evaluators."""
    name = rule.name
    checks: list[CheckFn] = []

    if name not in schema.names:
        # column absent -> field missing for every row (validationHelpers.js:142-146)
        if not rule.optional:

            def missing(ctx: _BatchCtx, name=name) -> list[Branch]:
                return [
                    Branch(
                        np.arange(ctx.n, dtype=np.int64),
                        name,
                        "missing",
                        "field present",
                        "field missing",
                        -1,
                    )
                ]

            checks.append(missing)
        return checks

    col_type = schema.field(name).type
    js_type = arrow_js_typeof(col_type)
    pos = {k: i for i, k in enumerate(RULE_ORDER)}

    # nestedSchema recursion over typed list<struct>/struct columns: fully
    # vectorized (pc.list_flatten + parent indices / pc.struct_field). When
    # the column isn't the matching container kind, the plain type_check
    # below reports the type mismatch exactly like the reference.
    nested_fn: CheckFn | None = None
    if rule.nested and rule.type == "object" and pa.types.is_struct(col_type):
        nested_fn = _make_object_nested_check(rule, schema, {k: i for i, k in enumerate(RULE_ORDER)})
    elif rule.nested and rule.type == "array" and _is_list_type(col_type):
        nested_fn = _make_array_nested_check(rule, schema, {k: i for i, k in enumerate(RULE_ORDER)})

    if rule.has_value:
        expected_str = rule.value_str()

        def value_check(ctx: _BatchCtx, name=name, expected_str=expected_str) -> list[Branch]:
            # actual?.toString() !== expected?.toString() (validationHelpers.js:108)
            nulls = ctx.null(name)
            if expected_str is None:
                mask = ~nulls  # null == null passes; any value mismatches
            else:
                mask = nulls | ctx.per_value(
                    name, lambda s: bool_np(pc.not_equal(s, expected_str)), encode=False
                )
            mask &= ~ctx.skip(name, rule.optional)
            idx = np.nonzero(mask)[0]
            if not idx.size:
                return []
            return [Branch(idx, name, "value", expected_str, ctx.strings_at(name, idx), pos["value"])]

        checks.append(value_check)

    if rule.enum is not None:
        enum_strs = [e for e in rule.enum_strs() if e is not None]
        null_ok = None in rule.enum_strs()
        expected_str = "|".join(rule.enum_strs()[i] or "" for i in range(len(rule.enum_strs())))
        value_set = pa.array(enum_strs, type=pa.string())

        def enum_check(ctx: _BatchCtx, name=name) -> list[Branch]:
            nulls = ctx.null(name)
            in_set = ctx.per_value(name, lambda s: bool_np(pc.is_in(s, value_set=value_set)))
            mask = ~in_set
            if null_ok:
                mask &= ~nulls
            mask &= ~ctx.skip(name, rule.optional)
            idx = np.nonzero(mask)[0]
            if not idx.size:
                return []
            return [Branch(idx, name, "enum", expected_str, ctx.strings_at(name, idx), pos["enum"])]

        checks.append(enum_check)

    if nested_fn is not None:
        checks.append(nested_fn)
    elif rule.type is not None:
        expected_type = rule.type

        def type_check(ctx: _BatchCtx, name=name, expected_type=expected_type, js_type=js_type) -> list[Branch]:
            out: list[Branch] = []
            nulls = ctx.null(name)
            skip = ctx.skip(name, rule.optional)
            p = pos["type"]
            if expected_type == "string" and js_type == "string":
                if rule.optional:
                    # optional null/empty were already skipped at walk level
                    return out
                nidx = np.nonzero(nulls)[0]
                if nidx.size:
                    out.append(Branch(nidx, name, "type", "string", "object", p))
                eidx = np.nonzero(ctx.empty(name) & ~nulls)[0]
                if eidx.size:
                    out.append(
                        Branch(eidx, name, "type", "non-empty string", "empty string", p)
                    )
                return out
            if expected_type == js_type:
                # typed column matches -> only null rows fail (typeof null === 'object';
                # for 'object' columns null also logs ('object','object'),
                # validationHelpers.js:53-59)
                if rule.optional and expected_type == "string":
                    return out
                mask = nulls & ~skip
                nidx = np.nonzero(mask)[0]
                if nidx.size:
                    out.append(Branch(nidx, name, "type", _expected_label(expected_type), "object", p))
                return out
            # column-level type mismatch: every non-null row fails with the
            # column's JS typeof; null rows fail with 'object'
            nnidx = np.nonzero(~nulls & ~skip)[0]
            if nnidx.size:
                out.append(Branch(nnidx, name, "type", _expected_label(expected_type), js_type, p))
            nidx = np.nonzero(nulls & ~skip)[0]
            if nidx.size and not (rule.optional and expected_type == "string"):
                out.append(Branch(nidx, name, "type", _expected_label(expected_type), "object", p))
            return out

        checks.append(type_check)

    if rule.length is not None:
        L = rule.length

        def length_check(ctx: _BatchCtx, name=name, L=L) -> list[Branch]:
            # (val || []).length !== parseInt(length) (validationHelpers.js:76-85)
            col = ctx.col(name)  # a dictionary column decoded
            skip = ctx.skip(name, rule.optional)
            p = pos["length"]
            t = col.type
            if is_string_type(t):
                # code-POINT length, matching the Python oracle's len().
                # Known FIXTURES quirk vs real JS String.length (UTF-16 code
                # UNITS): an astral-plane char counts 1 here, 2 in JS — the
                # engine-oracle pair is internally consistent, the JS
                # reference differs on non-BMP input
                lens = pc.fill_null(pc.utf8_length(col), 0)
            elif pa.types.is_list(t) or pa.types.is_large_list(t) or pa.types.is_fixed_size_list(t):
                lens = pc.fill_null(pc.list_value_length(col), 0)
            else:
                # numbers/bools/timestamps: truthy -> .length undefined (always
                # mismatch, actual null); falsy -> 0
                falsy = falsy_mask_np(col)
                out = []
                tidx = np.nonzero(~falsy & ~skip)[0]
                if tidx.size:
                    out.append(Branch(tidx, name, "length", str(L), None, p))
                if L != 0:
                    fidx = np.nonzero(falsy & ~skip)[0]
                    if fidx.size:
                        out.append(Branch(fidx, name, "length", str(L), "0", p))
                return out
            mask = bool_np(pc.not_equal(lens, L)) & ~skip
            idx = np.nonzero(mask)[0]
            if not idx.size:
                return []
            actual = pc.cast(take_np(lens, idx), pa.string())
            return [Branch(idx, name, "length", str(L), actual, p)]

        checks.append(length_check)

    if rule.regex is not None:
        pattern = rule.regex
        # Arrow's kernel is RE2: no lookaround/backreferences. Probe once at
        # COMPILE time; RE2-rejected patterns (valid in the JS reference and
        # the Python oracle's re.search) fall back to a compiled-once
        # Python-re pass instead of crashing every task at runtime.
        try:
            # non-empty probe: Arrow skips RE2 compilation on empty input
            pc.match_substring_regex(pa.array([""], pa.string()), pattern)
            py_rx = None
        except pa.ArrowInvalid:
            import re as _re

            py_rx = _re.compile(pattern)

        def regex_check(
            ctx: _BatchCtx, name=name, pattern=pattern, js_type=js_type, py_rx=py_rx
        ) -> list[Branch]:
            # validationHelpers.js:113-127: empty/null -> 'empty_value'; else
            # partial-match RegExp.test with string coercion
            out: list[Branch] = []
            nulls = ctx.null(name)
            skip = ctx.skip(name, rule.optional)
            p = pos["regex"]
            empty = ctx.empty(name) & ~nulls
            ev = (nulls | empty) & ~skip
            eidx = np.nonzero(ev)[0]
            if eidx.size:
                out.append(Branch(eidx, name, "regex", pattern, "empty_value", p))
            if py_rx is not None:

                def test(strings) -> np.ndarray:
                    vals = strings.to_pylist()
                    return np.fromiter(
                        (v is not None and py_rx.search(v) is not None for v in vals),
                        dtype=bool,
                        count=len(vals),
                    )

            else:

                def test(strings) -> np.ndarray:
                    return bool_np(pc.match_substring_regex(strings, pattern))

            matched = ctx.per_value(name, test)
            mask = ~matched & ~nulls & ~empty & ~skip
            idx = np.nonzero(mask)[0]
            if idx.size:
                out.append(Branch(idx, name, "regex", pattern, ctx.strings_at(name, idx), p))
            return out

        checks.append(regex_check)

    for kind, raw_val in rule.extra.items():
        compiler = CUSTOM_CHECKS.get(kind)
        if compiler is not None:
            checks.append(compiler(rule, raw_val, schema))

    return checks


def _expected_label(t: str) -> str:
    return t


def compile_ref_checks(spec: Spec, schema: pa.Schema) -> list[CheckFn]:
    """Cross-column referential rules (engine extension, SURVEY.md §2.4 J4):
    `field` non-null exactly when `when_field == when_value`."""
    checks: list[CheckFn] = []
    for r in spec.table.refs:
        if r.field not in schema.names or r.when_field not in schema.names:
            continue

        def ref_check(ctx: _BatchCtx, r=r) -> list[Branch]:
            out: list[Branch] = []
            when = ctx.per_value(
                r.when_field, lambda s: bool_np(pc.equal(s, r.when_value)), encode=False
            )
            nulls = ctx.null(r.field)
            expected = f"present iff {r.when_field}={r.when_value}"
            midx = np.nonzero(when & nulls)[0]
            if midx.size:
                out.append(Branch(midx, r.field, "ref", expected, "missing", 90))
            if r.iff:
                uidx = np.nonzero(~when & ~nulls)[0]
                if uidx.size:
                    out.append(Branch(uidx, r.field, "ref", expected, "unexpected", 91))
            return out

        checks.append(ref_check)
    return checks


def _as_string_array(x: pa.Array | pa.ChunkedArray) -> pa.Array:
    x = _one_array(x)
    return x if x.type == pa.string() else x.cast(pa.string())


class _Rows:
    """Log rows of consecutive branches, branch ``i`` covering ``counts[i]``
    rows; ``column`` builds one log column over them with one ``take``,
    whatever the number of branches."""

    def __init__(self, counts: np.ndarray):
        self.counts = counts
        self.branch = np.repeat(np.arange(counts.size), counts)
        self.n = self.branch.size

    def column(self, values: list[Any]) -> pa.Array:
        """Branch ``i``'s ``values[i]`` is a constant (str | None) or an
        array aligned with its rows. The constants come first and the
        array-valued branches' values after them in one array, which the
        column gathers."""
        is_arr = np.array([isinstance(v, (pa.Array, pa.ChunkedArray)) for v in values], dtype=bool)
        consts = pa.array([v for v, a in zip(values, is_arr) if not a], type=pa.string())
        if not is_arr.any():
            return pc.take(consts, pa.array(self.branch, type=pa.int64()))
        pool = pa.concat_arrays(
            [consts] + [_as_string_array(v) for v, a in zip(values, is_arr) if a]
        )
        arr_counts = self.counts * is_arr
        # each branch's first slot in `pool`: its constant, or where its array starts
        first = np.where(
            is_arr, len(consts) + np.cumsum(arr_counts) - arr_counts, np.cumsum(~is_arr) - 1
        )
        within = np.arange(self.n) - np.repeat(np.cumsum(self.counts) - self.counts, self.counts)
        idx = first[self.branch] + within * is_arr[self.branch]
        return pc.take(pool, pa.array(idx, type=pa.int64()))


def _run_ts_col(run_ts: _dt.datetime, n: int) -> pa.Array:
    ts_us = int(run_ts.timestamp() * 1_000_000)
    return pa.array(np.full(n, ts_us, dtype=np.int64), type=pa.timestamp("us"))


def _log_table(n: int, **cols: pa.Array) -> pa.Table:
    """An n-row ``VIOLATION_SCHEMA`` table: the given columns, every other
    one NULL."""
    nulls = pa.nulls(n, type=pa.string())  # every column not given is a string
    return pa.Table.from_arrays(
        [cols.get(name, nulls) for name in VIOLATION_SCHEMA.names], schema=VIOLATION_SCHEMA
    )


def _branches_to_table(
    branches: list[Branch],
    eid: pa.Array,
    event_name: str,
    run_ts: _dt.datetime,
    n_rows: int,
    log_valid: bool,
    log_payload: bool,
    batch: pa.Table,
    ts_source: pa.Array | None = None,
) -> pa.Table:
    """Assemble the 12-column log table from violation branches + valid rows."""
    # deterministic branch order: by field, then rule position (the vectorized
    # pass loses the reference's walk order; SURVEY.md §7.4 item 3)
    branches = [b for b in branches if b.idx.size]
    branches.sort(key=lambda b: (b.sort_field, b.rule_pos, b.error_type))

    rows = _Rows(np.array([b.idx.size for b in branches], dtype=np.int64))
    all_idx = pa.array(
        np.concatenate([b.idx for b in branches]) if branches else np.empty(0, dtype=np.int64),
        type=pa.int64(),
    )
    n_err = rows.n

    if log_payload and n_err:
        # LOG_PAYLOAD_WHEN_ERROR analog (loggingHelpers.js:18): serialize the
        # offending source row as JSON (slow path; off by default)
        payload = pa.array(
            [json.dumps(r, default=str, separators=(",", ":")) for r in batch.take(all_idx).to_pylist()],
            type=pa.string(),
        )
    else:
        payload = pa.nulls(n_err, type=pa.string())

    err_tbl = _log_table(
        n_err,
        event_id=pc.take(eid, all_idx),
        field=rows.column([b.field for b in branches]),
        error_type=rows.column([b.error_type for b in branches]),
        expected=rows.column([b.expected for b in branches]),
        actual=rows.column([b.actual for b in branches]),
        # event-time stamping: a violation carries its source row's ts
        # (reporting by event day instead of validation day)
        timestamp=_run_ts_col(run_ts, n_err)
        if ts_source is None
        else pc.take(ts_source, all_idx).cast(pa.timestamp("us")),
        status=const_str_array("error", n_err),
        event_name=const_str_array(event_name, n_err),
        event_data=payload,
    )
    if not log_valid:
        return err_tbl

    # one status='valid' row per clean turn (logPassed, loggingHelpers.js:22-31)
    ok_eid, ok_ts = eid, ts_source
    if n_err:
        ok = np.ones(n_rows, dtype=bool)
        ok[all_idx.to_numpy()] = False
        keep = pa.array(ok)
        ok_eid = eid.filter(keep)
        ok_ts = None if ts_source is None else ts_source.filter(keep)
    n_ok = len(ok_eid)
    ok_tbl = _log_table(
        n_ok,
        event_id=ok_eid,
        timestamp=_run_ts_col(run_ts, n_ok) if ok_ts is None else ok_ts.cast(pa.timestamp("us")),
        status=const_str_array("valid", n_ok),
        event_name=const_str_array(event_name, n_ok),
    )
    return pa.concat_tables([err_tbl, ok_tbl])


class ValidateBatch:
    """Callable instance for ``map_batches`` (run as plain tasks): the spec
    is loaded once in ``__init__`` and compiled once per block schema, reused
    while the schema repeats (the analog of loading the schema once — the
    reference re-downloads it per event, index.js:45 / AGENTS.md:807), work
    per batch in ``__call__``."""

    def __init__(
        self,
        spec: Spec | dict,
        run_ts: _dt.datetime = DEFAULT_RUN_TS,
        log_valid: bool = True,
        log_payload: bool = False,
        id_cols: tuple[str, ...] = ("conv_id", "turn_idx"),
        include_refs: bool = True,
        date_from: str | None = None,
        log_valid_fields: bool = False,
    ):
        from ..spec import load_spec

        self.spec = spec if isinstance(spec, Spec) else load_spec(spec)
        self.run_ts = run_ts
        self.log_valid = log_valid
        self.log_payload = log_payload
        self.id_cols = tuple(id_cols)
        self.include_refs = include_refs
        self.date_from = date_from
        self.log_valid_fields = log_valid_fields
        self._compiled: tuple[pa.Schema, list[CheckFn]] | None = None

    def _checks_for(self, schema: pa.Schema) -> list[CheckFn]:
        if self._compiled is None or not self._compiled[0].equals(schema):
            checks: list[CheckFn] = []
            for rule in self.spec.fields.values():
                checks.extend(_compile_field(rule, schema))
            if self.include_refs:
                checks.extend(compile_ref_checks(self.spec, schema))
            self._compiled = (schema, checks)
        return self._compiled[1]

    def __call__(self, batch: pa.Table) -> pa.Table:
        checks = self._checks_for(batch.schema)
        ctx = _BatchCtx(batch)
        branches: list[Branch] = []
        for fn in checks:
            branches.extend(fn(ctx))
        eid = make_event_id(batch, self.id_cols)
        ts_source = None
        if self.date_from is not None and self.date_from in batch.schema.names:
            ts_source = batch[self.date_from].combine_chunks()
        out = _branches_to_table(
            branches,
            eid,
            self.spec.event_name,
            self.run_ts,
            batch.num_rows,
            self.log_valid,
            self.log_payload,
            batch,
            ts_source,
        )
        if self.log_valid_fields:
            vf = self._valid_field_rows(batch, ctx, branches, eid)
            if vf.num_rows:
                out = pa.concat_tables([out, vf])
        return out

    def _valid_field_rows(
        self, batch: pa.Table, ctx: _BatchCtx, branches: list[Branch], eid: pa.Array
    ) -> pa.Table:
        """LOG_VALID_FIELDS analog (logValidField, loggingHelpers.js:33-46):
        one status='valid' row per field whose TYPE check passed, with
        `value` = JSON.stringify(rule.type). Off by default, like the
        reference flag (cloudHelpers.js:10)."""
        names: list[str] = []
        types: list[str] = []
        idx_parts: list[np.ndarray] = []
        for rule in self.spec.fields.values():
            if rule.type is None or rule.name not in batch.schema.names:
                continue
            if rule.type in ("array", "object") and rule.nested:
                continue  # nested recursion logs inner fields, not the parent
            fail = np.zeros(batch.num_rows, dtype=bool)
            for b in branches:
                if isinstance(b.field, str) and b.field == rule.name and b.error_type == "type":
                    fail[b.idx] = True
            mask = ~fail & ~ctx.skip(rule.name, rule.optional)
            if rule.optional:
                mask &= ~ctx.null(rule.name)
            vidx = np.nonzero(mask)[0]
            if vidx.size:
                names.append(rule.name)
                types.append(json.dumps(rule.type))
                idx_parts.append(vidx)
        if not names:
            return VIOLATION_SCHEMA.empty_table()
        rows = _Rows(np.array([p.size for p in idx_parts], dtype=np.int64))
        n = rows.n
        return _log_table(
            n,
            event_id=take_np(eid, np.concatenate(idx_parts)),
            field=rows.column(names),
            timestamp=_run_ts_col(self.run_ts, n),
            status=const_str_array("valid", n),
            event_name=const_str_array(self.spec.event_name, n),
            value=rows.column(types),
        )


class ValidateJsonDocs:
    """Nested-document validation (JSON-payload mode): full `nestedSchema`
    recursion parity via the row oracle over a JSON string column. This is the
    slow path, used only for document-typed payloads (arrays/objects) the
    columnar pass can't express — FIXTURES.md §4.

    Schemas are keyed by the document's event-name attribute (the broadcast
    `event_name -> compiled plan` lookup replacing the reference's per-event
    GCS fetch, index.js:45)."""

    def __init__(
        self,
        specs: dict[str, Spec],
        json_col: str = "text",
        run_ts: _dt.datetime = DEFAULT_RUN_TS,
        event_name_attr: str = "event_name",
        id_cols: tuple[str, ...] = ("conv_id", "turn_idx"),
        log_valid: bool = True,
        default_event_name: str | None = None,
        data_path: str | None = None,
    ):
        self.specs = specs
        self.json_col = json_col
        self.run_ts = run_ts
        self.event_name_attr = event_name_attr
        self.id_cols = tuple(id_cols)
        self.log_valid = log_valid
        self.default_event_name = default_event_name
        # EVENT_DATA_PATH analog (index.js:14-15): envelope unwrap path
        self.data_path = data_path

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..oracle import validate_event

        eid = make_event_id(batch, self.id_cols).to_pylist()
        docs = batch[self.json_col].to_pylist()
        ts_us = int(self.run_ts.timestamp() * 1_000_000)
        rows: dict[str, list] = {name: [] for name in VIOLATION_SCHEMA.names}

        def emit(eid_v, field, etype, exp, act, status, ename):
            rows["event_id"].append(eid_v)
            rows["field"].append(field)
            rows["error_type"].append(etype)
            rows["expected"].append(exp)
            rows["actual"].append(act)
            rows["timestamp"].append(ts_us)
            rows["source_event"].append(None)
            rows["status"].append(status)
            rows["event_name"].append(ename)
            rows["event_data"].append(None)
            rows["value"].append(None)
            rows["type"].append(None)

        for i, raw in enumerate(docs):
            if raw is None:
                emit(eid[i], None, "invalid_request", "request body", "missing", "error", None)
                continue
            try:
                doc = json.loads(raw)
            except (json.JSONDecodeError, TypeError):
                emit(eid[i], None, "invalid_request", "valid JSON", "parse error", "error", None)
                continue
            if self.data_path:
                from ..oracle import UNDEFINED, get_by_path

                doc = get_by_path(doc, self.data_path)
                if doc is UNDEFINED or not isinstance(doc, dict):
                    # index.js:32-37: no event data at path
                    emit(eid[i], None, "invalid_request", f"data at {self.data_path}", "missing", "error", None)
                    continue
            if not isinstance(doc, dict):
                emit(eid[i], None, "invalid_request", "object", type(doc).__name__, "error", None)
                continue
            ename = doc.get(self.event_name_attr) or self.default_event_name
            if not ename:
                # index.js:40-43
                emit(eid[i], None, "invalid_request", self.event_name_attr, "missing", "error", None)
                continue
            spec = self.specs.get(ename)
            if spec is None:
                # index.js:47-50
                emit(eid[i], None, "schema_not_found", "schema", "not found", "error", ename)
                continue
            violations = validate_event(spec.fields, doc)
            if violations:
                for field, etype, exp, act in violations:
                    emit(eid[i], field, etype, exp, act, "error", ename)
            elif self.log_valid:
                emit(eid[i], None, None, None, None, "valid", ename)

        arrays = {}
        for name in VIOLATION_SCHEMA.names:
            typ = VIOLATION_SCHEMA.field(name).type
            arrays[name] = pa.array(rows[name], type=typ)
        return pa.table(arrays, schema=VIOLATION_SCHEMA)


class ValidateDispatchBatch:
    """Per-record schema dispatch for FLAT tables: the vectorized analog of
    the reference's `event_name -> schema` lookup (index.js:45; SURVEY.md §2.4
    J1). The spec map is broadcast inside the callable (never a shuffle); each
    batch is split by the dispatch column and each subset runs its
    spec's compiled plan. Rows whose dispatch value has no spec emit
    `schema_not_found` (index.js:47-50) unless a `default` spec is given."""

    def __init__(
        self,
        specs: dict[str, Spec],
        dispatch_col: str = "event_name",
        run_ts: _dt.datetime = DEFAULT_RUN_TS,
        log_valid: bool = True,
        id_cols: tuple[str, ...] = ("conv_id", "turn_idx"),
        default: Spec | None = None,
    ):
        self.dispatch_col = dispatch_col
        self.run_ts = run_ts
        self.log_valid = log_valid
        self.id_cols = tuple(id_cols)
        self.default = default
        self._validators = {
            name: ValidateBatch(spec, run_ts=run_ts, log_valid=log_valid, id_cols=id_cols)
            for name, spec in specs.items()
        }
        self._default_validator = (
            ValidateBatch(default, run_ts=run_ts, log_valid=log_valid, id_cols=id_cols)
            if default is not None
            else None
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        if batch.num_rows == 0:
            # empty blocks occur at small scale; the run-boundary walk below
            # would index sidx[0] on an empty array
            return pa.Table.from_pylist([], schema=VIOLATION_SCHEMA)
        # ONE dictionary-encode + stable sort partitions the batch into
        # contiguous per-dispatch-value slices (O(N log N) + one take),
        # instead of one full-batch string-mask pass PER SPEC — the win at
        # GA4-like spec counts (36 schemas)
        disp = js_string_cast(batch[self.dispatch_col])
        if isinstance(disp, pa.ChunkedArray):
            disp = disp.combine_chunks()
        denc = disp.dictionary_encode()
        idx = (
            _pc.fill_null(denc.indices, -1).to_numpy(zero_copy_only=False).astype(np.int64)
        )
        vals = denc.dictionary.to_pylist()
        order = np.argsort(idx, kind="stable")
        sorted_batch = batch.take(pa.array(order, type=pa.int64()))
        sidx = idx[order]
        run_starts = np.flatnonzero(np.r_[True, sidx[1:] != sidx[:-1]])
        run_ends = np.r_[run_starts[1:], len(sidx)]

        parts: list[pa.Table] = []
        rest_slices: list[pa.Table] = []
        for s, e in zip(run_starts, run_ends):
            v = sidx[s]
            name = vals[v] if v >= 0 else None
            sub = sorted_batch.slice(s, e - s)
            validator = self._validators.get(name) if name is not None else None
            if validator is not None:
                parts.append(validator(sub))
            elif self._default_validator is not None:
                parts.append(self._default_validator(sub))
            else:
                rest_slices.append(sub)
        if rest_slices:
            sub = pa.concat_tables(rest_slices)
            eid = make_event_id(sub, self.id_cols)
            n = sub.num_rows
            ename = js_string_cast(sub[self.dispatch_col])
            if isinstance(ename, pa.ChunkedArray):
                ename = ename.combine_chunks()
            parts.append(
                _log_table(
                    n,
                    event_id=eid,
                    error_type=const_str_array("schema_not_found", n),
                    expected=const_str_array("schema", n),
                    actual=const_str_array("not found", n),
                    timestamp=_run_ts_col(self.run_ts, n),
                    status=const_str_array("error", n),
                    event_name=ename,
                )
            )
        if not parts:
            return VIOLATION_SCHEMA.empty_table()
        return pa.concat_tables(parts)
