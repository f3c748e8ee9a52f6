"""Arrow-kernel helpers shared by the vectorized stages.

Everything here operates on whole columns (pyarrow.compute / numpy) — never on
Python rows. These helpers encode the JS-semantics mapping onto typed Arrow
columns (SURVEY.md §7.4): a Parquet row is the JS object whose fields are the
columns; Arrow null maps to JS null, a missing column to a missing field.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def is_string_type(t: pa.DataType) -> bool:
    return pa.types.is_string(t) or pa.types.is_large_string(t)


def is_list_kind(t: pa.DataType) -> bool:
    """Every Arrow list flavor that maps to a JS array (the lint's static
    recursion and validate's runtime gate must agree on this predicate —
    keep it in ONE place)."""
    return pa.types.is_list(t) or pa.types.is_large_list(t) or pa.types.is_fixed_size_list(t)


def arrow_js_typeof(t: pa.DataType) -> str:
    """JS `typeof` of a non-null value stored in an Arrow column of type `t`
    (mirrors oracle.js_typeof on the Python-side values)."""
    if is_string_type(t):
        return "string"
    if pa.types.is_boolean(t):
        return "boolean"
    if pa.types.is_integer(t) or pa.types.is_floating(t) or pa.types.is_decimal(t):
        return "number"
    if pa.types.is_timestamp(t) or pa.types.is_date(t):
        return "timestamp"
    if is_list_kind(t):
        return "array"
    return "object"


def js_string_cast(col: pa.ChunkedArray | pa.Array) -> pa.ChunkedArray | pa.Array:
    """`x.toString()` vectorized. Arrow's cast already matches JS for the types
    we support (2.0 -> '2', 1.5 -> '1.5', true -> 'true') except float
    specials: JS says 'NaN'/'Infinity', Arrow says 'nan'/'inf'."""
    if is_string_type(col.type):
        return col
    if pa.types.is_fixed_size_list(col.type):
        # arrow_js_typeof classifies fixed_size_list as 'array' (embeddings
        # columns round-trip through Parquet/TensorArray this way), but plain
        # pc.cast(..., string) raises ArrowNotImplementedError on it — route
        # through variable-size list so the join branch below applies.
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        col = arr.cast(pa.list_(arr.type.value_type))
    if pa.types.is_list(col.type) or pa.types.is_large_list(col.type):
        # JS Array.prototype.toString(): elements joined with ',', null
        # elements render '' (spec.js_tostring semantics) — Arrow's plain
        # cast raises NotImplementedError here, which crashed any
        # value/enum/regex rule over a list column
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        inner = js_string_cast(arr.values)
        if isinstance(inner, pa.ChunkedArray):
            inner = inner.combine_chunks()
        inner = pc.fill_null(pc.cast(inner, pa.string()), "")
        cls = (
            pa.LargeListArray
            if pa.types.is_large_list(col.type)
            else pa.ListArray
        )
        lst = cls.from_arrays(arr.offsets, inner)
        joined = pc.binary_join(lst, ",")
        return pc.if_else(
            pc.is_valid(arr), joined, pa.scalar(None, pa.string())
        )
    if pa.types.is_struct(col.type):
        # JS Object.prototype.toString() — constant (spec.js_tostring)
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        return pc.if_else(
            pc.is_valid(arr),
            pa.scalar("[object Object]"),
            pa.scalar(None, pa.string()),
        )
    if pa.types.is_timestamp(col.type):
        # match str(datetime) / DuckDB VARCHAR: no '.000000' suffix on whole
        # seconds; Arrow's plain cast (which keeps real 6-digit micros) for
        # fractional values
        full = pc.cast(col, pa.string())  # fixed 26 chars: '...HH:MM:SS.ffffff'
        secs = pc.utf8_slice_codeunits(full, 0, 19)
        whole = pc.fill_null(pc.equal(pc.subsecond(col), 0.0), True)
        return pc.if_else(whole, secs, full)
    s = pc.cast(col, pa.string())
    if pa.types.is_floating(col.type):
        s = pc.if_else(pc.fill_null(pc.is_nan(col), False), "NaN", s)
        s = pc.if_else(
            pc.fill_null(pc.equal(col, float("inf")), False), "Infinity", s
        )
        s = pc.if_else(
            pc.fill_null(pc.equal(col, float("-inf")), False), "-Infinity", s
        )
    return s


def bool_np(mask: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Arrow boolean (possibly with nulls) -> dense numpy bool (null=False)."""
    if isinstance(mask, pa.ChunkedArray):
        mask = mask.combine_chunks()
    if mask.null_count:
        mask = pc.fill_null(mask, False)
    return mask.to_numpy(zero_copy_only=False).astype(bool, copy=False)


def null_mask_np(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    return bool_np(pc.is_null(col))


def trim_empty_mask_np(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """value.trim() === '' (non-null rows only): empty, or only whitespace.
    Tests each string in place instead of building a trimmed copy of every
    one (``text`` included) to find the rare blank ones."""
    return bool_np(pc.or_(pc.utf8_is_space(col), pc.equal(pc.binary_length(col), 0)))


def falsy_mask_np(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """JS falsiness per column type (for the `(val || [])` length idiom)."""
    t = col.type
    out = null_mask_np(col)
    if is_string_type(t):
        out |= bool_np(pc.equal(col, ""))
    elif pa.types.is_floating(t):
        out |= bool_np(pc.equal(col, 0.0)) | bool_np(pc.is_nan(col))
    elif pa.types.is_integer(t):
        out |= bool_np(pc.equal(col, 0))
    elif pa.types.is_boolean(t):
        out |= bool_np(pc.equal(col, False))
    return out


def const_str_array(value: str | None, n: int) -> pa.Array:
    """Length-n string array of one constant — dictionary-encoded index trick,
    O(n) int32 instead of O(n·len) bytes."""
    if n == 0:
        return pa.array([], type=pa.string())
    if value is None:
        return pa.nulls(n, type=pa.string())
    dic = pa.DictionaryArray.from_arrays(
        pa.array(np.zeros(n, dtype=np.int32)), pa.array([value], type=pa.string())
    )
    return dic.cast(pa.string())


def take_np(col: pa.ChunkedArray | pa.Array, idx: np.ndarray) -> pa.Array:
    taken = pc.take(col, pa.array(idx, type=pa.int64()))
    if isinstance(taken, pa.ChunkedArray):
        taken = taken.combine_chunks()
    return taken


def make_event_id(
    batch: pa.Table, id_cols: tuple[str, ...] = ("conv_id", "turn_idx")
) -> pa.Array:
    """Deterministic row identity `{conv_id}:{turn_idx}` — replaces the
    reference's per-request uuidv4 (index.js:19) so retries and resumes are
    idempotent and results reproducible.

    NULL contract: event_id is NULL iff the FIRST key (the conversation) is
    NULL — a row whose conversation is unknown has no addressable identity.
    Later NULL keys render 'null' (JS String(null)), so e.g. a null turn_idx
    yields 'conv:null' and the conversation prefix stays recoverable — the
    incremental-revalidation merge keys on that prefix (SQL twin:
    sqlgen._eid)."""
    parts = [js_string_cast(batch[c]) for c in id_cols]
    if len(parts) == 1:
        out = parts[0]
    else:
        parts = [parts[0]] + [
            pc.fill_null(pc.cast(p, pa.string()), "null") for p in parts[1:]
        ]
        out = pc.binary_join_element_wise(*parts, ":")
    if isinstance(out, pa.ChunkedArray):
        out = out.combine_chunks()
    return out
