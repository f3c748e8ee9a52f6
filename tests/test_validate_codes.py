"""ValidateBatch on dictionary codes: a low-cardinality string column is
tested once per distinct value and gathered back by its codes, and every log
column is one gather whatever the number of failing branches. The output
must not depend on which path ran, on whether a column arrives as
``dictionary<string>``, or on how the table is cut into blocks."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from events_validator_ray.functions import kernels
from events_validator_ray.functions.lint import spec_lint
from events_validator_ray.spec import load_spec
from events_validator_ray.stages import validate
from events_validator_ray.stages.validate import VIOLATION_SCHEMA, ValidateBatch


def _plain(tbl: pa.Table) -> pa.Table:
    """The table with every dictionary column decoded."""
    return tbl.cast(
        pa.schema(
            [
                (f.name, f.type.value_type if pa.types.is_dictionary(f.type) else f.type)
                for f in tbl.schema
            ]
        )
    )


def test_categorical_columns_log_like_plain_strings(tmp_path):
    """A Parquet column written from a pandas categorical reads back as
    ``dictionary<string>``; its log must equal its plain-string copy's, and
    the lint must not call it an object column."""
    df = pd.DataFrame(
        {
            "conv_id": ["c1", "c1", "c2", "c3", "c4", "c5"],
            "turn_idx": [0, 1, 0, 0, 0, 0],
            "role": pd.Categorical(["user", "tool", "bogus", None, "  ", "tool"]),
            "tool": pd.Categorical([None, "search", "Bad-Tool", "search", None, None]),
        }
    )
    path = tmp_path / "cat.parquet"
    df.to_parquet(path)
    tbl = pq.read_table(path)
    assert pa.types.is_dictionary(tbl.schema.field("role").type)
    assert pa.types.is_dictionary(tbl.schema.field("tool").type)
    spec = load_spec(
        {
            "conv_id": {"type": "string"},
            "turn_idx": {"type": "number"},
            "role": {"type": "string", "enum": ["user", "assistant", "tool"], "length": 4},
            "tool": {"type": "string", "regex": "^[a-z_]+$", "optional": True, "value": "search"},
            "_table": {"refs": [{"field": "tool", "when_field": "role", "when_value": "tool"}]},
        }
    )
    validator = ValidateBatch(spec, log_valid=True)
    got = validator(tbl)
    want = validator(_plain(tbl))
    assert got.equals(want)
    rows = {(r["event_id"], r["field"], r["error_type"], r["actual"]) for r in got.to_pylist()}
    # only the NULL role is an 'object' (typeof null), not every categorical row
    assert [r for r in rows if r[1:] == ("role", "type", "object")] == [("c3:0", "role", "type", "object")]
    assert ("c2:0", "tool", "regex", "Bad-Tool") in rows
    assert ("c5:0", "tool", "ref", "missing") in rows
    assert ("c2:0", "role", "length", "5") in rows
    assert spec_lint(spec, tbl.schema) == spec_lint(spec, _plain(tbl).schema) == []


def test_dictionary_type_maps_to_its_values():
    assert kernels.arrow_js_typeof(pa.dictionary(pa.int32(), pa.string())) == "string"
    assert kernels.arrow_js_typeof(pa.dictionary(pa.int8(), pa.int64())) == "number"
    col = pa.array(["a", None, "b"]).dictionary_encode()
    assert kernels.js_string_cast(col).to_pylist() == ["a", None, "b"]


# ---------------------------------------------------------------------------
# property: codes path == flat path, dictionary input == plain input, and
# whole == sliced (as a multiset of rows)
# ---------------------------------------------------------------------------

N_ROWS = 12_000
LOW_POOL = ["alpha", "beta", "", "  ", "　", "x1", "zz9", "Ünï", "\tpad"]
REGEXES = ["^a", "a", "[0-9]$", "^zz", "^\\s*$", "(?=a)"]  # the last is not RE2


def _low_card(rng, n):
    pool = np.array(LOW_POOL, dtype=object)
    return pool[rng.integers(0, int(rng.integers(1, len(pool) + 1)), n)]


def _high_card(rng, n):
    vals = np.array([f"v{i}" for i in rng.permutation(n)], dtype=object)
    blanks = rng.random(n) < 0.05
    vals[blanks] = np.array(LOW_POOL, dtype=object)[rng.integers(2, 5, int(blanks.sum()))]
    return vals


def _with_nulls(rng, vals):
    n = len(vals)
    pattern = int(rng.integers(0, 4))
    if pattern == 1:
        vals[rng.random(n) < rng.uniform(0.05, 0.95)] = None
    elif pattern == 2:
        vals[:] = None
    elif pattern == 3:  # NULL only past the probed head
        vals[validate.CODES_PROBE_ROWS :][rng.random(n - validate.CODES_PROBE_ROWS) < 0.5] = None
    return vals


def random_case(seed: int):
    rng = np.random.default_rng(seed)
    cols = {
        "conv_id": pa.array([f"c{i // 3}" for i in range(N_ROWS)]),
        "turn_idx": pa.array(np.arange(N_ROWS, dtype=np.int32) % 3),
    }
    spec_json: dict = {}
    names = []
    for ci in range(int(rng.integers(2, 5))):
        name = f"s{ci}"
        names.append(name)
        gen = _low_card if rng.random() < 0.6 else _high_card
        cols[name] = pa.array(_with_nulls(rng, gen(rng, N_ROWS)), pa.string())
        rule: dict = {}
        if rng.random() < 0.8:
            rule["type"] = "string" if rng.random() < 0.8 else "number"
        if rng.random() < 0.4:
            rule["value"] = ["alpha", "", "v7", None][int(rng.integers(0, 4))]
        if rng.random() < 0.5:
            rule["enum"] = [["alpha", "beta", "x1"], ["", "zz9"], ["v1", None]][int(rng.integers(0, 3))]
        if rng.random() < 0.5:
            rule["regex"] = REGEXES[int(rng.integers(0, len(REGEXES)))]
        if rng.random() < 0.3:
            rule["length"] = int(rng.integers(0, 6))
        if rng.random() < 0.4:
            rule["optional"] = True
        spec_json[name] = rule or {"type": "string"}
    refs = []
    for _ in range(int(rng.integers(0, 3))):
        field, when = rng.choice(names, 2)
        refs.append(
            {"field": str(field), "when_field": str(when), "when_value": LOW_POOL[int(rng.integers(0, 3))],
             "iff": bool(rng.random() < 0.5)}
        )
    spec_json["_table"] = {"refs": refs}
    return load_spec(spec_json), pa.table(cols)


def _sorted(tbl: pa.Table) -> pa.Table:
    return tbl.sort_by([(c, "ascending") for c in tbl.column_names])


@pytest.mark.parametrize("seed", [11, 12, 13, 14, 15, 16, 17, 18])
def test_codes_and_flat_paths_give_identical_tables(seed, monkeypatch):
    spec, tbl = random_case(seed)
    validator = ValidateBatch(spec, log_valid=True)
    default = validator(tbl)
    monkeypatch.setattr(validate, "CODES_MAX_SHARE", -1.0)  # never encode
    flat = validator(tbl)
    monkeypatch.setattr(validate, "CODES_MAX_SHARE", 1.0)  # encode every string column
    monkeypatch.setattr(validate, "CODES_PROBE_ROWS", 0)
    codes = validator(tbl)
    monkeypatch.undo()
    as_dict = tbl.cast(
        pa.schema(
            [(f.name, pa.dictionary(pa.int32(), f.type) if f.type == pa.string() else f.type) for f in tbl.schema]
        )
    )
    dictionary = validator(as_dict)
    assert flat.schema == codes.schema == dictionary.schema == VIOLATION_SCHEMA
    assert flat.num_rows > N_ROWS  # every row logs; some log errors
    for other in (default, codes, dictionary):
        assert other.equals(flat)
    # a sliced dictionary column keeps its codes' offset
    assert validator(as_dict.slice(301, 777)).equals(validator(tbl.slice(301, 777)))


@pytest.mark.parametrize("seed", [21, 22, 23, 24])
def test_whole_table_equals_its_random_slices(seed):
    spec, tbl = random_case(seed)
    validator = ValidateBatch(spec, log_valid=True)
    rng = np.random.default_rng(seed)
    parts, start = [], 0
    while start < tbl.num_rows:
        size = int(rng.choice([1, 45, 10_000]))
        parts.append(validator(tbl.slice(start, size)))
        start += size
    assert len(parts) > 1
    assert _sorted(pa.concat_tables(parts)).equals(_sorted(validator(tbl)))


# ---------------------------------------------------------------------------
# guard: the log columns cost the same whatever the number of failing branches
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, names):
    counts = dict.fromkeys(names, 0)

    def counting(key, fn):
        def wrapper(*a, **k):
            counts[key] += 1
            return fn(*a, **k)

        return wrapper

    monkeypatch.setattr(validate, "const_str_array", counting("const_str_array", validate.const_str_array))
    monkeypatch.setattr(pa, "concat_arrays", counting("concat_arrays", pa.concat_arrays))
    monkeypatch.setattr(pc, "take", counting("take", pc.take))
    return counts


def _branchy_block(n_failing: int) -> tuple[pa.Table, dict]:
    """``n_failing`` failing branches: ``n_failing - 1`` number columns
    under a 'string' type rule (constant actual) and one regex failure
    (array-valued actual)."""
    n = 500
    cols = {"conv_id": pa.array([f"c{i}" for i in range(n)]), "turn_idx": pa.array(np.arange(n))}
    spec: dict = {}
    for i in range(n_failing - 1):
        cols[f"n{i}"] = pa.array(np.arange(n) % 7)
        spec[f"n{i}"] = {"type": "string"}
    cols["s"] = pa.array(["ok"] * (n - 5) + ["BAD"] * 5)
    spec["s"] = {"type": "string", "regex": "^[a-z]+$"}
    return pa.table(cols), spec


def test_log_assembly_cost_does_not_grow_with_failing_branches(monkeypatch):
    per_block = []
    for n_failing in (3, 30):
        tbl, spec_json = _branchy_block(n_failing)
        validator = ValidateBatch(load_spec(spec_json), log_valid=True)
        expected = validator(tbl)
        assert len({(r["field"], r["error_type"]) for r in expected.to_pylist() if r["status"] == "error"}) == n_failing
        with monkeypatch.context() as m:
            counts = _count_calls(m, ("const_str_array", "concat_arrays", "take"))
            got = validator(tbl)
        assert got.equals(expected)
        per_block.append(counts)
    assert per_block[0] == per_block[1], per_block


def test_log_column_gather_matches_per_branch_concat():
    """``_Rows.column`` against the per-branch reference it replaced: one
    array per branch (its constant repeated, or its own values), concatenated."""
    rng = np.random.default_rng(5)
    for _ in range(50):
        counts = rng.integers(1, 6, int(rng.integers(0, 8)))
        values = []
        for k in counts:
            pick = int(rng.integers(0, 4))
            if pick == 0:
                values.append(None)
            elif pick == 1:
                values.append(str(rng.choice(["type", "", "enum", "ünï"])))
            else:
                arr = pa.array([None if rng.random() < 0.2 else f"a{i}" for i in range(int(k))], pa.string())
                values.append(arr if pick == 2 else pa.chunked_array([arr.slice(0, 1), arr.slice(1)]))
        want = pa.concat_arrays(
            [pa.array([], pa.string())]
            + [
                v.combine_chunks() if isinstance(v, pa.ChunkedArray) else v
                if isinstance(v, pa.Array)
                else pa.array([v] * int(k), pa.string())
                for v, k in zip(values, counts)
            ]
        )
        got = validate._Rows(np.asarray(counts, dtype=np.int64)).column(values)
        assert got.equals(want)


def test_blank_prefilter_on_sliced_columns_with_nulls():
    """The first-byte prefilter reads the offsets, data and validity
    buffers in place: sliced arrays (non-zero offset) with NULLs must give
    the trimmed reference too."""
    values = ["", None, " ", "　", "a", None, " a", "\x85", "\t\n", "é", "", None] * 7
    for typ in (pa.string(), pa.large_string()):
        col = pa.array(values, typ)
        for start in range(0, 13):
            part = col.slice(start, 40)
            want = pc.fill_null(pc.equal(pc.utf8_trim_whitespace(part), ""), False)
            assert kernels.trim_empty_mask_np(part).tolist() == want.to_pylist()


def test_const_str_array_is_a_plain_string_column():
    for value, n in (("valid", 3), ("", 4), ("ünï", 2), (None, 2), ("x", 0)):
        arr = kernels.const_str_array(value, n)
        arr.validate(full=True)
        assert arr.type == pa.string()
        assert arr.to_pylist() == [value] * n


def test_large_string_actuals_share_a_column_with_constants():
    """A ``large_string`` column's failing values and another branch's
    constant land in one ``actual`` column (the per-branch concat raised
    ArrowInvalid on the mixed string types)."""
    tbl = pa.table(
        {
            "conv_id": ["a", "b"],
            "turn_idx": [0, 1],
            "s": pa.array(["ok", "BAD"], pa.large_string()),
            "n": [1, 2],
        }
    )
    spec = load_spec({"s": {"type": "string", "regex": "^[a-z]+$"}, "n": {"type": "string"}})
    out = ValidateBatch(spec, log_valid=False)(tbl)
    assert out.schema == VIOLATION_SCHEMA
    assert out.select(["event_id", "field", "error_type", "actual"]).to_pylist() == [
        {"event_id": "a:0", "field": "n", "error_type": "type", "actual": "number"},
        {"event_id": "b:1", "field": "n", "error_type": "type", "actual": "number"},
        {"event_id": "b:1", "field": "s", "error_type": "regex", "actual": "BAD"},
    ]
