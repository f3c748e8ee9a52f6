"""Spec inference (spec_suggest): capped-distinct profile semantics, SQL-twin
parity, and the profile -> Spec constructor.

The profile is EXACT under the cap by construction (a block ships its full
distinct set iff it has <= ENUM_MAX+1 distinct values, else one OVERFLOW
marker — a block can only overflow if the corpus does), so these tests pin
both sides of the cap plus the enum disqualification rules.
"""

import duckdb
import pandas as pd
import pytest

from events_validator_ray.stages.sketches import (
    ENUM_MAX,
    ENUM_VALUE_MAX_LEN,
    capped_distinct_profile,
)


def _profile(df, cols, renders, parts=4):
    import ray.data as rd

    return capped_distinct_profile(rd.from_pandas(df).repartition(parts), cols, renders)


def test_enum_and_overflow(ray_session):
    n = 2000
    df = pd.DataFrame(
        {
            # 3 distinct short strings, some nulls -> enum candidate
            "role": [["user", "assistant", None, "tool"][i % 4] for i in range(n)],
            # n distinct ints -> overflow in every block
            "uid": range(n),
            # exactly ENUM_MAX+1 distinct: capped, NOT an enum
            "bucket": [i % (ENUM_MAX + 1) for i in range(n)],
        }
    )
    prof = _profile(df, ["role", "uid", "bucket"], {"role": "str", "uid": "int", "bucket": "int"})

    role = prof["role"]
    assert role["n_rows"] == n and role["n_nulls"] == n // 4
    assert role["n_distinct_capped"] == 3
    assert role["values"] == ["assistant", "tool", "user"]  # sorted renders
    assert role["max_len"] == len("assistant")

    uid = prof["uid"]
    assert uid["n_distinct_capped"] == ENUM_MAX + 1  # capped
    assert uid["values"] == []
    assert uid["max_len"] == len(str(n - 1))

    bucket = prof["bucket"]
    assert bucket["n_distinct_capped"] == ENUM_MAX + 1
    assert bucket["values"] == []  # over ENUM_MAX even though under the cap


def test_cross_block_union_exceeds_cap(ray_session):
    """No single block overflows (each has <= cap distinct) but the union
    does: the digest union must still report the cap and drop the enum."""
    # 4 blocks x 5 disjoint values = 20 distinct, 5 per block
    df = pd.DataFrame({"v": [f"b{i % 4}_v{i % 5}" for i in range(400)]})
    prof = _profile(df.sort_values("v").reset_index(drop=True), ["v"], {"v": "str"}, parts=4)
    assert prof["v"]["n_distinct_capped"] == ENUM_MAX + 1
    assert prof["v"]["values"] == []


def test_long_value_disqualifies_enum_and_empty_string_survives(ray_session):
    df = pd.DataFrame(
        {
            "lng": (["x" * (ENUM_VALUE_MAX_LEN + 7)] * 50) + (["ok"] * 50),
            "emp": (["", "a"] * 50),
        }
    )
    prof = _profile(df, ["lng", "emp"], {"lng": "str", "emp": "str"})
    lng = prof["lng"]
    assert lng["n_distinct_capped"] == 2
    assert lng["max_len"] == ENUM_VALUE_MAX_LEN + 7  # disqualifies at query level
    emp = prof["emp"]
    # '' is a real enum value (the '=' row marker keeps it distinguishable
    # from the per-block summary rows)
    assert emp["values"] == ["", "a"]


def test_spec_suggest_sql_parity(ray_session):
    from events_validator_ray.pipelines.queries import (
        q_spec_suggest,
        spec_suggest_oracle,
    )
    from events_validator_ray.sources.transcripts import ensure_transcripts

    sf = 0.001
    ensure_transcripts(sf)
    eng = q_spec_suggest(f"/root/testdata/sf{sf:g}")
    ora = duckdb.sql(spec_suggest_oracle(sf)).df()
    eng = eng.sort_values("col").reset_index(drop=True)[sorted(eng.columns)]
    ora = ora.sort_values("col").reset_index(drop=True)[sorted(ora.columns)]
    pd.testing.assert_frame_equal(eng, ora, check_dtype=False)
    # sanity on shape: role is an enum candidate, conv_id/text/ts overflow
    byc = eng.set_index("col")
    assert byc.loc["role", "enum_values"] != ""
    for c in ["conv_id", "text", "ts"]:
        assert byc.loc[c, "n_distinct_capped"] == ENUM_MAX + 1
        assert byc.loc[c, "enum_values"] == ""


def test_infer_spec_builds_usable_rules(ray_session):
    from events_validator_ray.oracle import validate_event
    from events_validator_ray.sources.specs import infer_spec

    df = pd.DataFrame(
        {
            "kind": ["click"] * 100,  # single value -> exact value rule
            "tool": [None if i % 3 else "hammer" for i in range(99)] + ["saw"],
            "n": range(100),
        }
    )
    prof = _profile(df, ["kind", "tool", "n"], {"kind": "str", "tool": "str", "n": "int"})
    spec = infer_spec(prof, {"kind": "string", "tool": "string", "n": "number"})
    rules = spec.fields
    assert rules["kind"].has_value and rules["kind"].value == "click"
    assert not rules["kind"].optional
    assert rules["tool"].optional and not rules["tool"].has_value  # 2 values
    assert rules["n"].type == "number" and not rules["n"].optional
    # the inferred spec accepts its own data and rejects a drifted value
    assert validate_event(rules, {"kind": "click", "tool": None, "n": 7}) == []
    bad = validate_event(rules, {"kind": "tap", "tool": "hammer", "n": 7})
    assert any(v[1] == "value" for v in bad)


@pytest.mark.parametrize(
    "values",
    [
        ["c" * (ENUM_VALUE_MAX_LEN + 7)] * 40,  # one constant past the cap
        # two values sharing the profile's ENUM_VALUE_MAX_LEN+1-char prefix
        ["p" * (ENUM_VALUE_MAX_LEN + 1) + "a", "p" * (ENUM_VALUE_MAX_LEN + 1) + "b"] * 20,
    ],
    ids=["long_constant", "shared_prefix"],
)
def test_infer_spec_long_values_accept_own_data(ray_session, values):
    """The profile keeps only a prefix of long values, so neither case may
    become a `value` rule: the inferred spec must accept its own data."""
    from events_validator_ray.oracle import validate_event
    from events_validator_ray.sources.specs import infer_spec

    df = pd.DataFrame({"kind": values})
    prof = _profile(df, ["kind"], {"kind": "str"})
    assert len(prof["kind"]["values"]) <= 1  # the truncation that used to leak
    spec = infer_spec(prof, {"kind": "string"})
    assert not spec.fields["kind"].has_value
    for v in set(values):
        assert validate_event(spec.fields, {"kind": v}) == []
