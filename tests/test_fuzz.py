"""Fuzz differentials: random specs over random typed columns — the
vectorized validator must match the row oracle everywhere; random
conversation shapes — BucketChecker must match the per-conversation
reference checker."""

import datetime as dt

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from events_validator_ray.oracle import validate_event
from events_validator_ray.spec import load_spec, transcript_spec
from events_validator_ray.stages.validate import ValidateBatch


def random_spec_and_batch(seed: int):
    rng = np.random.default_rng(seed)
    n = 400
    cols: dict[str, pa.Array] = {
        "conv_id": pa.array([f"c{i % 50}" for i in range(n)]),
        "turn_idx": pa.array(np.arange(n, dtype=np.int32)),
    }
    spec_json: dict[str, dict] = {}
    kinds = ["string", "number", "timestamp"]
    for ci in range(int(rng.integers(2, 6))):
        name = f"f{ci}"
        kind = kinds[int(rng.integers(0, len(kinds)))]
        if kind == "string":
            pool = np.array(["alpha", "beta", "", "  ", "x1", "zz9"], dtype=object)
            vals = pool[rng.integers(0, len(pool), n)]
            vals[rng.random(n) < 0.1] = None
            cols[name] = pa.array(vals, pa.string())
        elif kind == "number":
            vals = rng.integers(-5, 10, n).astype("float64")
            vals[rng.random(n) < 0.1] = np.nan  # NaN passes `number`
            arr = pa.array(vals)
            nulls = rng.random(n) < 0.1
            arr = pa.array(
                [None if m else v for v, m in zip(vals, nulls)], pa.float64()
            )
            cols[name] = arr
        else:
            base = dt.datetime(2024, 1, 1)
            vals = [
                None if rng.random() < 0.1 else base + dt.timedelta(seconds=int(s))
                for s in rng.integers(0, 1000, n)
            ]
            cols[name] = pa.array(vals, pa.timestamp("us"))

        rule: dict = {}
        if rng.random() < 0.8:
            rule["type"] = kinds[int(rng.integers(0, len(kinds)))]
        if rng.random() < 0.3:
            rule["value"] = ["alpha", "1", 3, "true"][int(rng.integers(0, 4))]
        if rng.random() < 0.3 and kind == "string":
            rule["enum"] = ["alpha", "beta", "x1"]
        if rng.random() < 0.3:
            rule["regex"] = ["^a", "a", "[0-9]$", "^zz"][int(rng.integers(0, 4))]
        if rng.random() < 0.3:
            rule["length"] = int(rng.integers(0, 6))
        if rng.random() < 0.3:
            rule["optional"] = True
        if not rule:
            rule["type"] = kind
        spec_json[name] = rule
    # one always-missing required + one missing optional column
    spec_json["missing_req"] = {"type": "string"}
    spec_json["missing_opt"] = {"type": "string", "optional": True}
    return load_spec(spec_json), pa.table(cols)


def oracle_set(batch: pa.Table, spec) -> set:
    out = set()
    for row in batch.to_pylist():
        # pylist gives float('nan') for NaN; keep as-is (oracle handles NaN)
        eid = f"{row['conv_id']}:{row['turn_idx']}"
        for field, etype, exp, act in validate_event(spec.fields, row):
            out.add((eid, field, etype, exp, act))
    return out


@pytest.mark.parametrize("seed", [101, 202, 303, 404, 505, 606, 707])
def test_fuzz_scalar_vs_oracle(seed):
    spec, batch = random_spec_and_batch(seed)
    res = ValidateBatch(spec, log_valid=False, include_refs=False)(batch)
    got = {
        (r["event_id"], r["field"], r["error_type"], r["expected"], r["actual"])
        for r in res.to_pylist()
    }
    want = oracle_set(batch, spec)
    assert got == want


@pytest.mark.parametrize("seed", [31, 32, 33, 34, 35])
def test_fuzz_conversation_checkers(ray_session, seed):
    from collections import Counter

    from events_validator_ray.stages.conversation import (
        BucketChecker,
        ConversationChecker,
    )

    rng = np.random.default_rng(seed)
    rows = []
    base = dt.datetime(2024, 1, 1)
    for c in range(40):
        conv = f"conv_{c:08d}"
        n = int(rng.integers(1, 12))
        turns = list(range(n))
        if rng.random() < 0.4 and n > 2:
            turns[int(rng.integers(1, n))] += int(rng.integers(2, 5))
        if rng.random() < 0.4:
            turns.append(turns[int(rng.integers(0, n))])
        if rng.random() < 0.2:
            turns = [t + int(rng.integers(1, 3)) for t in turns]
        for t in turns:
            ts = base + dt.timedelta(seconds=int(t) * 10 + int(rng.integers(0, 5)))
            if rng.random() < 0.15:
                ts = base - dt.timedelta(seconds=int(rng.integers(50, 200)))
            if rng.random() < 0.1:
                ts = None
            rows.append((conv, t, rng.choice(["user", "assistant", None]), ts))
    df = pd.DataFrame(rows, columns=["conv_id", "turn_idx", "role", "ts"])
    df["turn_idx"] = df["turn_idx"].astype("int32")
    df["ts"] = pd.to_datetime(df["ts"])
    spec = transcript_spec()

    key = lambda r: (r["event_id"], r["field"], r["error_type"], r["expected"], r["actual"])
    got = Counter(key(r) for r in BucketChecker(spec)(pa.Table.from_pandas(df, preserve_index=False)).to_pylist())
    want = Counter()
    for conv, g in df.groupby("conv_id"):
        tbl = pa.Table.from_pandas(g, preserve_index=False).select(
            ["conv_id", "turn_idx", "role", "ts"]
        )
        tbl = tbl.set_column(
            tbl.schema.get_field_index("ts"), "ts", tbl["ts"].cast(pa.timestamp("us"))
        )
        for r in ConversationChecker(spec)(tbl).to_pylist():
            want[key(r)] += 1
    assert got == want


def _random_doc(rng, depth=0):
    """Random JSON document with nested objects/arrays/scalars."""
    out = {}
    for i in range(int(rng.integers(1, 5))):
        k = f"k{i}"
        r = rng.random()
        if r < 0.2 and depth < 2:
            out[k] = _random_doc(rng, depth + 1)
        elif r < 0.35 and depth < 2:
            out[k] = [
                _random_doc(rng, depth + 1) if rng.random() < 0.5 else int(rng.integers(0, 9))
                for _ in range(int(rng.integers(0, 3)))
            ]
        elif r < 0.42 and depth < 2:
            # arrays-of-arrays: items walked UNWRAPPED via the JS property
            # view (index keys + 'length'), a[0][1]-style (round-3 item 8)
            out[k] = [
                [["x", 3, None][int(rng.integers(0, 3))] for _ in range(int(rng.integers(0, 3)))]
                for _ in range(int(rng.integers(1, 3)))
            ]
        elif r < 0.5:
            out[k] = ["x", "", None, 7, True][int(rng.integers(0, 5))]
        elif r < 0.7:
            out[k] = float(rng.integers(0, 100))
        else:
            out[k] = ["alpha", "beta", ""][int(rng.integers(0, 3))]
    return out


def _random_nested_rule(rng, depth=0):
    rule = {}
    r = rng.random()
    if r < 0.3 and depth < 2:
        rule["type"] = "object"
        rule["nestedSchema"] = {
            f"k{i}": _random_nested_rule(rng, depth + 1) for i in range(int(rng.integers(1, 3)))
        }
    elif r < 0.5 and depth < 2:
        rule["type"] = "array"
        rule["nestedSchema"] = {
            f"k{i}": _random_nested_rule(rng, depth + 1) for i in range(int(rng.integers(1, 3)))
        }
        if rng.random() < 0.4:
            # index-key / length rules resolve against the JS array property
            # view when the item is itself an array (_array_props)
            rule["nestedSchema"][str(int(rng.integers(0, 3)))] = _random_nested_rule(
                rng, depth + 1
            )
            rule["nestedSchema"]["length"] = {"type": "number"}
    else:
        rule["type"] = ["string", "number", "boolean"][int(rng.integers(0, 3))]
        if rng.random() < 0.3:
            rule["value"] = ["x", 7, "true"][int(rng.integers(0, 3))]
        if rng.random() < 0.3:
            rule["regex"] = ["^a", "[0-9]"][int(rng.integers(0, 2))]
        if rng.random() < 0.3:
            rule["optional"] = True
    return rule


@pytest.mark.parametrize("seed", [11, 22, 33])
def test_fuzz_json_docs_plumbing(seed):
    """ValidateJsonDocs (map stage) must emit exactly the oracle's rows for
    random nested docs — exercises the eid/dispatch/emission plumbing on
    arbitrary nestedSchema recursion."""
    import json

    from events_validator_ray.stages.validate import ValidateJsonDocs

    rng = np.random.default_rng(seed)
    spec_json = {f"k{i}": _random_nested_rule(rng) for i in range(3)}
    spec_json["event_name"] = {"type": "string", "value": "doc"}
    spec = load_spec(spec_json, event_name="doc")
    docs = [dict(_random_doc(rng), event_name="doc") for _ in range(60)]
    batch = pa.table(
        {
            "conv_id": pa.array([f"c{i}" for i in range(len(docs))]),
            "turn_idx": pa.array(list(range(len(docs))), pa.int32()),
            "text": pa.array([json.dumps(d) for d in docs]),
        }
    )
    out = ValidateJsonDocs({"doc": spec}, json_col="text", log_valid=False)(batch)
    got = {
        (r["event_id"], r["field"], r["error_type"], r["expected"], r["actual"])
        for r in out.to_pylist()
    }
    want = set()
    for i, d in enumerate(docs):
        for field, etype, exp, act in validate_event(spec.fields, d):
            want.add((f"c{i}:{i}", field, etype, exp, act))
    assert got == want


def random_typed_nested_spec_and_batch(seed: int):
    """Random nestedSchema specs over TYPED list<struct>/struct/list<scalar>
    columns (the vectorized nested walk's input domain)."""
    rng = np.random.default_rng(seed)
    n = 250
    cols: dict[str, pa.Array] = {"event_id": pa.array(np.arange(n, dtype=np.int64))}
    spec_json: dict[str, dict] = {"event_id": {"type": "number"}}

    def child_rule(kind):
        rule: dict = {}
        # sometimes a deliberately mismatched expected type
        rule["type"] = (
            kind if rng.random() < 0.7 else ["string", "number", "boolean"][int(rng.integers(0, 3))]
        )
        if kind == "string" and rng.random() < 0.4:
            rule["regex"] = ["^a", "[0-9]$", "x"][int(rng.integers(0, 3))]
        if rng.random() < 0.3:
            rule["value"] = ["alpha", 3, "true"][int(rng.integers(0, 3))]
        if rng.random() < 0.3:
            rule["length"] = int(rng.integers(0, 4))
        if rng.random() < 0.3:
            rule["optional"] = True
        return rule

    def scalar_children(total):
        s_pool = np.array(["alpha", "beta", "", "  ", "ax9"], dtype=object)
        svals = s_pool[rng.integers(0, len(s_pool), total)]
        svals[rng.random(total) < 0.15] = None
        mvals = rng.integers(-3, 9, total).astype(object)
        mvals[rng.random(total) < 0.15] = None
        return (
            pa.array(svals, pa.string()),
            pa.array(mvals, pa.int64()),
        )

    # list<struct<s: string, m: int64>> with occasional null lists/items
    n_items = rng.integers(0, 4, n)
    null_list = rng.random(n) < 0.1
    n_items[null_list] = 0
    total = int(n_items.sum())
    s_arr, m_arr = scalar_children(total)
    item_null = rng.random(total) < 0.12
    child = pa.StructArray.from_arrays(
        [s_arr, m_arr], names=["s", "m"], mask=pa.array(item_null)
    )
    offsets = np.concatenate([[0], np.cumsum(n_items)]).astype(np.int32)
    cols["items"] = pa.ListArray.from_arrays(
        pa.array(offsets, type=pa.int32()), child, mask=pa.array(null_list)
    )
    spec_json["items"] = {
        "type": "array",
        "nestedSchema": {
            "s": child_rule("string"),
            "m": child_rule("number"),
            # key absent from the struct type -> per-item missing
            "ghost": {"type": "string", "optional": bool(rng.random() < 0.5)},
        },
    }

    # struct<s: string, m: int64>
    s2, m2 = scalar_children(n)
    null_struct = rng.random(n) < 0.1
    cols["meta"] = pa.StructArray.from_arrays(
        [s2, m2], names=["s", "m"], mask=pa.array(null_struct)
    )
    spec_json["meta"] = {
        "type": "object",
        "nestedSchema": {"s": child_rule("string"), "m": child_rule("number")},
        **({"optional": True} if rng.random() < 0.3 else {}),
    }

    # list<string> with the wrapped {'': item} wildcard rule
    n_tags = rng.integers(0, 3, n)
    tag_total = int(n_tags.sum())
    t_arr, _ = scalar_children(tag_total)
    toff = np.concatenate([[0], np.cumsum(n_tags)]).astype(np.int32)
    cols["tags"] = pa.ListArray.from_arrays(pa.array(toff, type=pa.int32()), t_arr)
    spec_json["tags"] = {
        "type": "array",
        "nestedSchema": {"": child_rule("string"), "k": child_rule("number")},
    }

    return load_spec(spec_json, event_name="t"), pa.table(cols)


@pytest.mark.parametrize("seed", [1201, 1202, 1203, 1204, 1205, 1206])
def test_fuzz_typed_nested_vs_oracle(seed):
    spec, batch = random_typed_nested_spec_and_batch(seed)
    res = ValidateBatch(spec, log_valid=False, include_refs=False, id_cols=("event_id",))(batch)
    got = {
        (r["event_id"], r["field"], r["error_type"], r["expected"], r["actual"])
        for r in res.to_pylist()
    }
    want = set()
    for row in batch.to_pylist():
        for field, etype, exp, act in validate_event(spec.fields, row):
            want.add((str(row["event_id"]), field, etype, exp, act))
    assert got == want


def random_jswalk_spec_and_batch(seed: int):
    """Random nestedSchema specs over TYPED list<list<..>> / list<map<..>>
    columns — the JS property-walk emulation's input domain (index keys,
    'length', absent properties, deep index recursion, map own-keys)."""
    rng = np.random.default_rng(seed)
    n = 200
    cols: dict[str, pa.Array] = {"event_id": pa.array(np.arange(n, dtype=np.int64))}
    spec_json: dict[str, dict] = {"event_id": {"type": "number"}}

    def idx_rule():
        rule: dict = {"type": ["string", "number", "array"][int(rng.integers(0, 3))]}
        if rng.random() < 0.3:
            rule["value"] = ["alpha", 2][int(rng.integers(0, 2))]
        if rng.random() < 0.3:
            rule["regex"] = ["^a", "[0-9]$"][int(rng.integers(0, 2))]
        if rng.random() < 0.3:
            rule["length"] = int(rng.integers(0, 3))
        if rng.random() < 0.3:
            rule["optional"] = True
        return rule

    s_pool = ["alpha", "beta", "", "a9", None]

    def rand_inner():
        if rng.random() < 0.08:
            return None
        return [s_pool[int(rng.integers(0, len(s_pool)))] for _ in range(int(rng.integers(0, 4)))]

    # grid: list<list<string>>
    grid = [None if rng.random() < 0.08 else [rand_inner() for _ in range(int(rng.integers(0, 3)))] for _ in range(n)]
    cols["grid"] = pa.array(grid, type=pa.list_(pa.list_(pa.string())))
    spec_json["grid"] = {
        "type": "array",
        "nestedSchema": {
            "0": idx_rule(),
            "2": idx_rule(),
            "length": {"type": "number", **({"value": 2} if rng.random() < 0.5 else {})},
            "ghost": {"type": "string", **({"optional": True} if rng.random() < 0.5 else {})},
            "01": {"type": "string", "optional": bool(rng.random() < 0.5)},
        },
    }

    # cube: list<list<list<int64>>> with deep index recursion a[i].0[j]...
    def rand_l2():
        if rng.random() < 0.1:
            return None
        return [
            None if rng.random() < 0.1 else [int(x) for x in rng.integers(0, 5, int(rng.integers(0, 3)))]
            for _ in range(int(rng.integers(0, 3)))
        ]

    cube = [None if rng.random() < 0.1 else [rand_l2() for _ in range(int(rng.integers(0, 2)))] for _ in range(n)]
    cols["cube"] = pa.array(cube, type=pa.list_(pa.list_(pa.list_(pa.int64()))))
    spec_json["cube"] = {
        "type": "array",
        "nestedSchema": {
            "0": {
                "type": "array",
                "nestedSchema": {"1": {"type": "number"}, "length": {"type": "number"}},
            },
        },
    }

    # attrs: list<map<string,string>> (duplicate keys possible: last-wins)
    k_pool = ["k", "req", "other"]

    def rand_map():
        if rng.random() < 0.1:
            return None
        return [
            (k_pool[int(rng.integers(0, len(k_pool)))], s_pool[int(rng.integers(0, len(s_pool)))])
            for _ in range(int(rng.integers(0, 4)))
        ]

    attrs = [None if rng.random() < 0.08 else [rand_map() for _ in range(int(rng.integers(0, 3)))] for _ in range(n)]
    cols["attrs"] = pa.array(attrs, type=pa.list_(pa.map_(pa.string(), pa.string())))
    spec_json["attrs"] = {
        "type": "array",
        "nestedSchema": {
            "k": idx_rule(),
            "req": {"type": "string"},
            "ghost2": {"type": "number", "optional": bool(rng.random() < 0.5)},
        },
    }

    # oracle-side docs: map items become JS-object dicts (dict() = last-wins)
    docs = []
    for i in range(n):
        docs.append(
            {
                "event_id": i,
                "grid": grid[i],
                "cube": cube[i],
                "attrs": None
                if attrs[i] is None
                else [None if m is None else dict(m) for m in attrs[i]],
            }
        )
    return load_spec(spec_json, event_name="t"), pa.table(cols), docs


@pytest.mark.parametrize("seed", [1501, 1502, 1503, 1504, 1505, 1506])
def test_fuzz_jswalk_typed_vs_oracle(seed):
    spec, batch, docs = random_jswalk_spec_and_batch(seed)
    res = ValidateBatch(spec, log_valid=False, include_refs=False, id_cols=("event_id",))(batch)
    got = {
        (r["event_id"], r["field"], r["error_type"], r["expected"], r["actual"])
        for r in res.to_pylist()
    }
    want = set()
    for doc in docs:
        for field, etype, exp, act in validate_event(spec.fields, doc):
            want.add((str(doc["event_id"]), field, etype, exp, act))
    assert got == want


def random_sql_safe_spec_and_batch(seed: int):
    """Random specs over string/int/timestamp columns restricted to the
    SQL-twin-safe domain (no float-valued rules, no regex on timestamps —
    the documented cross-engine hazards)."""
    rng = np.random.default_rng(seed)
    n = 300
    cols: dict[str, pa.Array] = {
        "conv_id": pa.array([f"c{i % 40}" for i in range(n)]),
        "turn_idx": pa.array(np.arange(n, dtype=np.int32)),
    }
    kinds: dict[str, str] = {}
    spec_json: dict[str, dict] = {}
    for ci in range(int(rng.integers(2, 6))):
        name = f"f{ci}"
        kind = ["string", "number", "timestamp"][int(rng.integers(0, 3))]
        if kind == "string":
            pool = np.array(["alpha", "beta", "", "  ", "x1", "zz9"], dtype=object)
            vals = pool[rng.integers(0, len(pool), n)]
            vals[rng.random(n) < 0.12] = None
            cols[name] = pa.array(vals, pa.string())
        elif kind == "number":
            vals = rng.integers(-5, 10, n).astype(object)
            vals[rng.random(n) < 0.12] = None
            cols[name] = pa.array(vals, pa.int64())
        else:
            base = dt.datetime(2024, 1, 1)
            vals = [
                None if rng.random() < 0.12 else base + dt.timedelta(seconds=int(s))
                for s in rng.integers(0, 1000, n)
            ]
            cols[name] = pa.array(vals, pa.timestamp("us"))
        kinds[name] = kind

        rule: dict = {}
        if rng.random() < 0.8:
            rule["type"] = ["string", "number", "timestamp"][int(rng.integers(0, 3))]
        if rng.random() < 0.3 and kind != "timestamp":
            rule["value"] = ["alpha", "1", 3][int(rng.integers(0, 3))]
        if rng.random() < 0.3 and kind == "string":
            rule["enum"] = ["alpha", "beta", "x1"]
        if rng.random() < 0.3 and kind != "timestamp":
            rule["regex"] = ["^a", "a", "[0-9]$", "^zz"][int(rng.integers(0, 4))]
        if rng.random() < 0.3:
            rule["length"] = int(rng.integers(0, 6))
        if rng.random() < 0.3:
            rule["optional"] = True
        if not rule:
            rule["type"] = kind
        spec_json[name] = rule
    return load_spec(spec_json), pa.table(cols), kinds


@pytest.mark.parametrize("seed", [901, 902, 903, 904, 905, 906])
def test_fuzz_sqlgen_twin_matches_engine(seed):
    """The generated DuckDB oracle SQL must reproduce the vectorized engine on
    RANDOM specs — hardens the twin generator itself, not just the fixed
    transcript/events specs the driver exercises."""
    import duckdb

    from events_validator_ray.pipelines.sqlgen import scalar_violations_sql

    spec, batch, kinds = random_sql_safe_spec_and_batch(seed)
    res = ValidateBatch(spec, log_valid=False, include_refs=False)(batch)
    got = {
        (r["event_id"], r["field"], r["error_type"], r["expected"], r["actual"])
        for r in res.to_pylist()
    }
    con = duckdb.connect()
    con.register("t", batch)
    sql = scalar_violations_sql(spec, "t", kinds)
    want = set()
    if sql:
        for r in con.sql(sql).df().to_dict("records"):
            want.add(
                (r["event_id"], r["field"], r["error_type"], r["expected"], r["actual"])
            )
        # normalize NaN -> None from pandas
        want = {
            tuple(None if (isinstance(x, float) and pd.isna(x)) else x for x in row)
            for row in want
        }
    assert got == want


@pytest.mark.parametrize("seed", [911, 912, 913, 914])
def test_fuzz_valid_rows_condition_matches_engine(seed):
    """The logPassed SQL twin (valid_rows_condition) must agree with the
    engine's status='valid' rows on random specs."""
    import duckdb

    from events_validator_ray.pipelines.sqlgen import valid_rows_condition

    spec, batch, kinds = random_sql_safe_spec_and_batch(seed)
    res = ValidateBatch(spec, log_valid=True, include_refs=False)(batch)
    got = {r["event_id"] for r in res.to_pylist() if r["status"] == "valid"}
    con = duckdb.connect()
    con.register("t", batch)
    cond = valid_rows_condition(spec, kinds, include_refs=False)
    want = {
        r["eid"]
        for r in con.sql(
            f"SELECT conv_id || ':' || CAST(turn_idx AS VARCHAR) AS eid FROM t WHERE {cond}"
        ).df().to_dict("records")
    }
    assert got == want


def random_sql_safe_nested_spec_and_batch(seed: int):
    """Random nested specs over typed list<struct>/struct columns restricted
    to the nested-SQL-twin domain (struct children only; int/string kinds)."""
    rng = np.random.default_rng(seed)
    n = 200

    def child_rule(kind):
        rule: dict = {}
        rule["type"] = (
            kind if rng.random() < 0.7 else ["string", "number", "boolean"][int(rng.integers(0, 3))]
        )
        if kind == "string" and rng.random() < 0.4:
            rule["regex"] = ["^a", "[0-9]$", "x"][int(rng.integers(0, 3))]
        if rng.random() < 0.3:
            rule["value"] = ["alpha", 3, "true"][int(rng.integers(0, 3))]
        if rng.random() < 0.3:
            rule["length"] = int(rng.integers(0, 4))
        if rng.random() < 0.3:
            rule["optional"] = True
        return rule

    def scalar_children(total):
        s_pool = np.array(["alpha", "beta", "", "  ", "ax9"], dtype=object)
        svals = s_pool[rng.integers(0, len(s_pool), total)]
        svals[rng.random(total) < 0.15] = None
        mvals = rng.integers(-3, 9, total).astype(object)
        mvals[rng.random(total) < 0.15] = None
        return pa.array(svals, pa.string()), pa.array(mvals, pa.int64())

    cols = {"event_id": pa.array(np.arange(n, dtype=np.int64))}
    spec_json: dict[str, dict] = {"event_id": {"type": "number"}}

    n_items = rng.integers(0, 4, n)
    null_list = rng.random(n) < 0.1
    n_items[null_list] = 0
    total = int(n_items.sum())
    s_arr, m_arr = scalar_children(total)
    item_null = rng.random(total) < 0.12
    child = pa.StructArray.from_arrays([s_arr, m_arr], names=["s", "m"], mask=pa.array(item_null))
    offsets = np.concatenate([[0], np.cumsum(n_items)]).astype(np.int32)
    cols["items"] = pa.ListArray.from_arrays(
        pa.array(offsets, type=pa.int32()), child, mask=pa.array(null_list)
    )
    spec_json["items"] = {
        "type": "array",
        "nestedSchema": {
            "s": child_rule("string"),
            "m": child_rule("number"),
            "ghost": {"type": "string", "optional": bool(rng.random() < 0.5)},
        },
    }

    s2, m2 = scalar_children(n)
    null_struct = rng.random(n) < 0.1
    cols["meta"] = pa.StructArray.from_arrays(
        [s2, m2], names=["s", "m"], mask=pa.array(null_struct)
    )
    spec_json["meta"] = {
        "type": "object",
        "nestedSchema": {
            "s": child_rule("string"),
            "m": child_rule("number"),
            "ghost": {"type": "number", "optional": bool(rng.random() < 0.5)},
        },
    }
    # grid: list<list<string>> — the jsarray property-walk twin domain
    s_pool = ["alpha", "beta", "", "a9", None]
    grid = [
        None
        if rng.random() < 0.08
        else [
            None
            if rng.random() < 0.1
            else [s_pool[int(rng.integers(0, len(s_pool)))] for _ in range(int(rng.integers(0, 4)))]
            for _ in range(int(rng.integers(0, 3)))
        ]
        for _ in range(n)
    ]
    cols["grid"] = pa.array(grid, type=pa.list_(pa.list_(pa.string())))
    spec_json["grid"] = {
        "type": "array",
        "nestedSchema": {
            "0": child_rule("string"),
            "2": child_rule("string"),
            "length": {"type": "number", **({"value": 2} if rng.random() < 0.5 else {})},
            "ghost": {"type": "string", "optional": bool(rng.random() < 0.5)},
            "01": {"type": "string", "optional": bool(rng.random() < 0.5)},
        },
    }
    child_kinds = {
        "items": {"s": "string", "m": "number"},
        "meta": {"s": "string", "m": "number"},
        "grid": {"__elem__": "string"},
    }
    return load_spec(spec_json, event_name="t"), pa.table(cols), child_kinds


@pytest.mark.parametrize("seed", [921, 922, 923, 924, 925])
def test_fuzz_nested_sqlgen_twin_matches_engine(seed):
    """The nested UNNEST SQL twin must reproduce the vectorized nested walk on
    RANDOM specs — including keys absent from the struct type (per-item /
    per-struct missing)."""
    import duckdb

    from events_validator_ray.pipelines.sqlgen import nested_spec_violations_sql

    spec, batch, child_kinds = random_sql_safe_nested_spec_and_batch(seed)
    res = ValidateBatch(spec, log_valid=False, include_refs=False, id_cols=("event_id",))(batch)
    got = {
        (r["event_id"], r["field"], r["error_type"], r["expected"], r["actual"])
        for r in res.to_pylist()
    }
    con = duckdb.connect()
    con.register("t", batch)
    sql = nested_spec_violations_sql(
        spec, "t", {"event_id": "number"}, key_cols=("event_id",), nested_kinds=child_kinds
    )
    want = set()
    for r in con.sql(sql).df().to_dict("records"):
        want.add((r["event_id"], r["field"], r["error_type"], r["expected"], r["actual"]))
    want = {
        tuple(None if (isinstance(x, float) and pd.isna(x)) else x for x in row)
        for row in want
    }
    assert got == want


def _random_nested_column(rng, n):
    """One (col_arrow_array, nested-capable rule dict or scalar rule) pair
    drawn from the shapes spec_lint and ValidateBatch must both survive."""
    shape = int(rng.integers(0, 6))
    child_types = {"a": pa.int64(), "b": pa.string()}
    if shape == 0:  # struct
        arr = pa.array(
            [{"a": int(i), "b": f"s{i}"} if i % 4 else None for i in range(n)],
            pa.struct(child_types),
        )
    elif shape == 1:  # list<struct>
        arr = pa.array(
            [[{"a": int(i), "b": None}] * (i % 3) if i % 5 else None for i in range(n)],
            pa.list_(pa.struct(child_types)),
        )
    elif shape == 2:  # list<scalar>
        arr = pa.array(
            [[float(i), None][: i % 3] if i % 5 else None for i in range(n)],
            pa.list_(pa.float64()),
        )
    elif shape == 3:  # plain string (JSON-mode candidate)
        arr = pa.array([f'{{"a": {i}}}' if i % 4 else None for i in range(n)])
    elif shape == 4:  # plain int
        arr = pa.array(np.arange(n), pa.int64())
    else:  # fixed_size_list (embedding-like)
        arr = pa.array(
            [[float(i), float(i + 1)] if i % 4 else None for i in range(n)],
            pa.list_(pa.float64(), 2),
        )
    # rule: sometimes the right container type, sometimes wrong, sometimes
    # omitted; sometimes carrying a nestedSchema (possibly dead)
    rule: dict = {}
    t = int(rng.integers(0, 4))
    if t == 0:
        rule["type"] = "array"
    elif t == 1:
        rule["type"] = "object"
    elif t == 2:
        rule["type"] = "string"
    # t == 3: no type at all
    if rng.random() < 0.7:
        rule["nestedSchema"] = {
            "a": {"type": "number"},
            "b": {"type": "string", "optional": True},
            "": {"type": "number"},
            "missing_key": {"type": "string"},
        }
    if rng.random() < 0.3:
        rule["optional"] = True
    # value/enum/regex rules force the js_string_cast path — the exact
    # branch that crashed on fixed_size_list columns pre-fix
    r = rng.random()
    if r < 0.25:
        rule["regex"] = "^[0-9,.]+$"
    elif r < 0.4:
        rule["enum"] = ["1,2", "x"]
    elif r < 0.5:
        rule["value"] = "1,2"
    return arr, rule


@pytest.mark.parametrize("seed", [11, 22, 33, 44, 55, 66, 77, 88])
def test_fuzz_lint_validate_agreement(seed):
    """Random nested specs over random column shapes: spec_lint must never
    raise and must emit well-formed findings, and ValidateBatch must run on
    any (spec, schema) pair the lint accepted — the lint pre-flights, the
    validator survives regardless."""
    from events_validator_ray.functions.lint import spec_lint

    rng = np.random.default_rng(seed)
    n = 60
    cols: dict = {
        "conv_id": pa.array([f"c{i % 7}" for i in range(n)]),
        "turn_idx": pa.array(np.arange(n, dtype=np.int32)),
    }
    spec_json: dict = {}
    for ci in range(int(rng.integers(1, 5))):
        arr, rule = _random_nested_column(rng, n)
        cols[f"g{ci}"] = arr
        spec_json[f"g{ci}"] = rule
    batch = pa.table(cols)
    spec = load_spec(spec_json)

    findings = spec_lint(spec, batch.schema)
    for f in findings:
        assert f.severity in ("critical", "minor")
        assert f.code and f.field and f.message

    # the validator must not crash on any of these shapes (typed nested
    # walk, jswalk, wrapped scalars, fixed_size_list stringification, dead
    # nested rules, JSON-mode strings)
    res = ValidateBatch(spec, log_valid=False, include_refs=False)(batch)
    assert set(res.column_names) >= {"event_id", "field", "error_type"}
