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


def value_type(t: pa.DataType) -> pa.DataType:
    """The type of the values a column holds: a dictionary column's value
    type (a pandas categorical written to Parquet reads back as
    ``dictionary<values=string>``), any other type itself."""
    return t.value_type if pa.types.is_dictionary(t) else t


def arrow_js_typeof(t: pa.DataType) -> str:
    """JS `typeof` of a non-null value stored in an Arrow column of type `t`
    (mirrors oracle.js_typeof on the Python-side values)."""
    t = value_type(t)
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
    specials: JS says 'NaN'/'Infinity', Arrow says 'nan'/'inf'. A dictionary
    column is decoded first."""
    if pa.types.is_dictionary(col.type):
        return js_string_cast(pc.cast(col, col.type.value_type))
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


def valid_np(arr: pa.Array) -> np.ndarray:
    """The validity bitmap of a (non-chunked) array as numpy bool, read in
    place; all True when the array has no NULL."""
    if not arr.null_count:
        return np.ones(len(arr), dtype=bool)
    bits = np.frombuffer(arr.buffers()[0], dtype=np.uint8)
    return np.unpackbits(bits, count=arr.offset + len(arr), bitorder="little")[arr.offset :].view(bool)


def null_mask_np(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    if not col.null_count:
        return np.zeros(len(col), dtype=bool)
    return bool_np(pc.is_null(col))


def trim_empty_mask_np(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """value.trim() === '' (non-null rows only): empty, or only whitespace.
    A string whose first byte is printable non-space ASCII (0x21-0x7E)
    cannot be blank, so ``utf8_is_space`` runs only on the others (empty
    strings and those starting with a space, a control byte or a multi-byte
    character), read in place from the offsets and data buffers."""
    if isinstance(col, pa.ChunkedArray):
        if col.num_chunks == 1:
            return trim_empty_mask_np(col.chunk(0))
        return np.concatenate([trim_empty_mask_np(c) for c in col.chunks] or [np.zeros(0, dtype=bool)])
    n = len(col)
    width = 8 if pa.types.is_large_string(col.type) else 4
    _, offs_buf, data_buf = col.buffers()
    if offs_buf is None:  # a zero-length array may carry no buffers
        return np.zeros(n, dtype=bool)
    offs = np.frombuffer(offs_buf, dtype=f"<i{width}", count=n + 1, offset=col.offset * width)
    if data_buf is None or data_buf.size == 0:
        first = np.zeros(n, dtype=np.uint8)
    else:
        data = np.frombuffer(data_buf, dtype=np.uint8)
        starts = offs[:-1].astype(np.intp)
        first = data[np.minimum(starts, data.size - 1, out=starts)]
    blank = offs[1:] == offs[:-1]  # empty; the others blank only if all space
    maybe = ~blank & ((first < 0x21) | (first > 0x7E))
    if col.null_count:  # a NULL row is never blank
        valid = valid_np(col)
        blank &= valid
        maybe &= valid
    maybe = np.flatnonzero(maybe)
    if maybe.size:
        blank[maybe] = bool_np(pc.utf8_is_space(col.take(pa.array(maybe, type=pa.int64()))))
    return blank


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
    """Length-n plain string array of one constant, built straight from its
    buffers: offsets from ``arange`` and the value's bytes repeated."""
    if value is None:
        return pa.nulls(n, type=pa.string())
    data = value.encode()
    if n * len(data) > np.iinfo(np.int32).max:
        raise OverflowError(f"{n} copies of {value!r} pass the 2 GiB string-array limit")
    offsets = np.arange(n + 1, dtype=np.int32) * np.int32(len(data))
    return pa.Array.from_buffers(
        pa.string(), n, [None, pa.py_buffer(offsets), pa.py_buffer(data * n)]
    )


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
