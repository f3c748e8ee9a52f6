"""Property test: the vectorized Arrow validator must agree row-for-row with
the golden oracle on a transcript-shaped batch with injected violations."""

import datetime as dt

import numpy as np
import pyarrow as pa
import pytest

from events_validator_ray.oracle import validate_event
from events_validator_ray.spec import transcript_spec, load_spec
from events_validator_ray.stages.validate import ValidateBatch, VIOLATION_SCHEMA


def make_batch() -> pa.Table:
    base_ts = dt.datetime(2024, 1, 1)
    rows = dict(
        conv_id=[], turn_idx=[], role=[], text=[], tool=[], ts=[]
    )

    def add(conv, idx, role, text, tool, ts_off):
        rows["conv_id"].append(conv)
        rows["turn_idx"].append(idx)
        rows["role"].append(role)
        rows["text"].append(text)
        rows["tool"].append(tool)
        rows["ts"].append(base_ts + dt.timedelta(seconds=ts_off) if ts_off is not None else None)

    add("conv_00000001", 0, "user", "hello", None, 0)
    add("conv_00000001", 1, "assistant", "hi there", None, 1)
    add("conv_00000001", 2, "tool", "result", "search_web", 2)
    add("conv_00000001", 3, "robot", "bad role", None, 3)        # enum violation
    add("conv_00000001", 4, "user", "", None, 4)                 # empty text
    add("conv_00000001", 5, "assistant", "   ", None, 5)         # whitespace text
    add("conv_00000001", 6, None, "null role", None, 6)          # null role
    add("conv_00000001", 7, "user", None, None, 7)               # null text
    add("conv_00000001", 8, "tool", "x", "Bad-Tool!", 8)         # tool regex violation
    add("conv_00000001", 9, "tool", "y", None, 9)                # ref: tool missing
    add("conv_00000001", 10, "user", "z", "sneaky_tool", 10)     # ref: tool unexpected
    add("badconv", 11, "user", "bad conv id", None, 11)          # conv_id regex violation
    add("conv_00000002", 0, "user", "ok", None, 0)
    add("conv_00000002", 1, "assistant", None, None, None)       # null text + null ts
    return pa.table(
        {
            "conv_id": pa.array(rows["conv_id"], pa.string()),
            "turn_idx": pa.array(rows["turn_idx"], pa.int32()),
            "role": pa.array(rows["role"], pa.string()),
            "text": pa.array(rows["text"], pa.string()),
            "tool": pa.array(rows["tool"], pa.string()),
            "ts": pa.array(rows["ts"], pa.timestamp("us")),
        }
    )


def oracle_rows(batch: pa.Table, spec) -> set:
    out = set()
    for row in batch.to_pylist():
        eid = f"{row['conv_id']}:{row['turn_idx']}"
        for field, etype, exp, act in validate_event(spec.fields, row):
            out.add((eid, field, etype, exp, act))
        # cross-column ref rules (engine extension; not part of the scalar walk)
        for r in spec.table.refs:
            when = str(row.get(r.when_field)) == r.when_value
            present = row.get(r.field) is not None
            expected = f"present iff {r.when_field}={r.when_value}"
            if when and not present:
                out.add((eid, r.field, "ref", expected, "missing"))
            elif r.iff and not when and present:
                out.add((eid, r.field, "ref", expected, "unexpected"))
    return out


def test_vectorized_matches_oracle():
    spec = transcript_spec()
    batch = make_batch()
    result = ValidateBatch(spec)(batch)
    assert result.schema.equals(VIOLATION_SCHEMA)

    got_err = {
        (r["event_id"], r["field"], r["error_type"], r["expected"], r["actual"])
        for r in result.filter(
            pa.compute.equal(result["status"], "error")
        ).to_pylist()
    }
    want = oracle_rows(batch, spec)
    assert got_err == want

    # valid rows = rows with no violation at all
    err_ids = {e for e, *_ in got_err}
    valid_ids = {
        r["event_id"]
        for r in result.filter(pa.compute.equal(result["status"], "valid")).to_pylist()
    }
    all_ids = {f"{r['conv_id']}:{r['turn_idx']}" for r in batch.to_pylist()}
    assert valid_ids == all_ids - err_ids
    assert valid_ids  # sanity: some rows are clean


def test_missing_column_and_value_rule():
    spec = load_spec(
        {
            "conv_id": {"type": "string"},
            "turn_idx": {"type": "number", "value": 0},
            "absent_col": {"type": "string"},
            "absent_optional": {"type": "string", "optional": True},
        }
    )
    batch = pa.table(
        {
            "conv_id": pa.array(["c1", "c2"]),
            "turn_idx": pa.array([0, 5], pa.int32()),
        }
    )
    res = ValidateBatch(spec, id_cols=("conv_id", "turn_idx"))(batch)
    err = {
        (r["event_id"], r["field"], r["error_type"], r["expected"], r["actual"])
        for r in res.filter(pa.compute.equal(res["status"], "error")).to_pylist()
    }
    assert ("c1:0", "absent_col", "missing", "field present", "field missing") in err
    assert ("c2:5", "absent_col", "missing", "field present", "field missing") in err
    assert ("c2:5", "turn_idx", "value", "0", "5") in err
    assert not any(f == "absent_optional" for _, f, *_ in err)


def test_length_and_float_value_tostring():
    # JS: (2.0).toString() === '2'; length of number is undefined
    spec = load_spec({"v": {"type": "number", "value": 2.0, "length": 3}})
    batch = pa.table({"conv_id": pa.array(["c"]), "turn_idx": pa.array([0]), "v": pa.array([2.0])})
    res = ValidateBatch(spec)(batch)
    err = [
        (r["field"], r["error_type"], r["expected"], r["actual"])
        for r in res.filter(pa.compute.equal(res["status"], "error")).to_pylist()
    ]
    assert err == [("v", "length", "3", None)]


def test_large_random_batch_matches_oracle():
    rng = np.random.default_rng(7)
    n = 2000
    roles = np.array(["user", "assistant", "tool", "system", "robot", ""], dtype=object)
    role = roles[rng.integers(0, len(roles), n)]
    role[rng.random(n) < 0.05] = None
    text = np.array(["hello world", "", "   ", "ok"], dtype=object)[rng.integers(0, 4, n)]
    text[rng.random(n) < 0.05] = None
    tool = np.array(["search_web", "Bad!", "x9_", "9bad"], dtype=object)[rng.integers(0, 4, n)]
    tool[rng.random(n) < 0.6] = None
    conv = np.array([f"conv_{i % 37:08d}" for i in range(n)], dtype=object)
    conv[rng.random(n) < 0.02] = "nope"
    batch = pa.table(
        {
            "conv_id": pa.array(conv, pa.string()),
            "turn_idx": pa.array(np.arange(n, dtype=np.int32)),
            "role": pa.array(role, pa.string()),
            "text": pa.array(text, pa.string()),
            "tool": pa.array(tool, pa.string()),
            "ts": pa.array(
                [dt.datetime(2024, 1, 1) + dt.timedelta(seconds=int(i)) for i in range(n)],
                pa.timestamp("us"),
            ),
        }
    )
    spec = transcript_spec()
    res = ValidateBatch(spec)(batch)
    got = {
        (r["event_id"], r["field"], r["error_type"], r["expected"], r["actual"])
        for r in res.filter(pa.compute.equal(res["status"], "error")).to_pylist()
    }
    assert got == oracle_rows(batch, spec)


def test_nested_rule_on_list_struct_column_is_vectorized():
    """Round 1 failed fast here; the nested walk is now a vectorized path
    (tests/test_nested.py has the full differential)."""
    spec = load_spec(
        {"items": {"type": "array", "nestedSchema": {"id": {"type": "string"}}}}
    )
    batch = pa.table(
        {"conv_id": ["c"], "turn_idx": [0], "items": pa.array([[{"id": "x"}, {"id": None}]])}
    )
    res = ValidateBatch(spec, log_valid=False)(batch)
    rows = res.to_pylist()
    assert [(r["field"], r["error_type"], r["expected"], r["actual"]) for r in rows] == [
        ("items[1].id", "type", "string", "object")
    ]


def test_nested_rule_on_list_of_list_items_property_walk():
    """JS walks nested-array items via property lookup (canonical index keys
    + 'length'; anything else is an absent property) — emulated columnar."""
    spec = load_spec(
        {
            "items": {
                "type": "array",
                "nestedSchema": {
                    "0": {"type": "string"},
                    "1": {"type": "array", "nestedSchema": {"id": {"type": "string"}}},
                    "length": {"type": "number", "value": 2},
                    "id": {"type": "string"},
                    "01": {"type": "string", "optional": True},
                },
            }
        }
    )
    batch = pa.table(
        {
            "conv_id": ["c", "d"],
            "turn_idx": [0, 1],
            "items": pa.array(
                [[["x"]], [["a", "b"], None]],
                type=pa.list_(pa.list_(pa.string())),
            ),
        }
    )
    rows = ValidateBatch(spec, log_valid=False)(batch).to_pylist()
    got = sorted(
        (r["event_id"], r["field"], r["error_type"], r["expected"], r["actual"])
        for r in rows
    )
    assert got == sorted(
        [
            # c: item ['x']: index 1 out of range, length 1 != 2, 'id' absent
            ("c:0", "items[0].1", "missing", "field present", "field missing"),
            ("c:0", "items[0].length", "value", "2", "1"),
            ("c:0", "items[0].id", "missing", "field present", "field missing"),
            # d item0 ['a','b']: '1' -> 'b' (string, not array); 'id' absent
            ("d:1", "items[0].1", "type", "array", "string"),
            ("d:1", "items[0].id", "missing", "field present", "field missing"),
            # d item1 null: walks {'': null} -> required keys missing
            ("d:1", "items[1].0", "missing", "field present", "field missing"),
            ("d:1", "items[1].1", "missing", "field present", "field missing"),
            ("d:1", "items[1].length", "missing", "field present", "field missing"),
            ("d:1", "items[1].id", "missing", "field present", "field missing"),
        ]
    )


def test_nested_rule_on_map_items_property_walk():
    """Map items are JS objects: own-key lookup, absent keys missing,
    duplicate keys resolve last-wins like JSON.parse."""
    spec = load_spec(
        {
            "items": {
                "type": "array",
                "nestedSchema": {
                    "k": {"type": "string", "value": "b"},
                    "opt": {"type": "number", "optional": True},
                    "req": {"type": "string"},
                },
            }
        }
    )
    batch = pa.table(
        {
            "conv_id": ["c"],
            "turn_idx": [0],
            "items": pa.array(
                [[[("k", "a"), ("k", "b"), ("req", "x")], [("req", "y")]]],
                type=pa.list_(pa.map_(pa.string(), pa.string())),
            ),
        }
    )
    rows = ValidateBatch(spec, log_valid=False)(batch).to_pylist()
    got = sorted(
        (r["event_id"], r["field"], r["error_type"], r["expected"], r["actual"])
        for r in rows
    )
    assert got == sorted(
        [
            # item0: k last-wins 'b' passes value + string; item1: k missing
            ("c:0", "items[1].k", "missing", "field present", "field missing"),
        ]
    )


def _trimmed_empty(col) -> np.ndarray:
    """The blank test as a trimmed copy: `utf8_trim_whitespace(v) == ''`."""
    import pyarrow.compute as pc

    return pc.fill_null(pc.equal(pc.utf8_trim_whitespace(col), ""), False).to_numpy(zero_copy_only=False)


def test_trim_empty_mask_agrees_with_trimming_on_every_code_point():
    """`trim_empty_mask_np` tests blankness in place (`utf8_is_space` or
    empty). Over every Unicode scalar value, alone and between spaces, it
    marks exactly the strings that trim to ''."""
    from events_validator_ray.functions.kernels import trim_empty_mask_np

    chars = [chr(c) for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF]
    for values in (chars, [f" {c}\t" for c in chars]):
        col = pa.chunked_array([pa.array(values[:40_000]), pa.array(values[40_000:])])
        got = trim_empty_mask_np(col)
        assert np.array_equal(got, _trimmed_empty(col))
    assert trim_empty_mask_np(pa.array(chars)).sum() == 29  # the whitespace code points


def test_trim_empty_mask_edge_strings():
    from events_validator_ray.functions.kernels import trim_empty_mask_np

    values = ["", None, " ", " \t\n\u3000\u00a0", "a b", " a ", "\u200b", "x"]
    for typ in (pa.string(), pa.large_string()):
        col = pa.array(values, typ)
        got = trim_empty_mask_np(col)
        assert got.tolist() == [True, False, True, True, False, False, False, False]
        assert np.array_equal(got, _trimmed_empty(col))
