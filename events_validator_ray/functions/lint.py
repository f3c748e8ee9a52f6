"""Spec lint: cross-check a constraint spec against an observed Arrow schema.

The Ray-native collapse of the reference's schema-health subsystem
(streamlit_ev/app/helpers/updater.py:151-217 — `check_schema_health` compares
each schema against the param repository, classifying findings as critical
(type conflicts) or minor (description/value/nested-shape drift)). Here the
"repository" is the physical Parquet schema: run at driver startup, before
any data moves.
"""

from __future__ import annotations

from dataclasses import dataclass

import pyarrow as pa

from ..functions.kernels import arrow_js_typeof, is_list_kind
from ..spec import Spec


@dataclass
class LintFinding:
    severity: str  # critical | minor
    field: str
    code: str
    message: str


def _lint_rules(rules, schema: pa.Schema, prefix: str, findings: list[LintFinding]) -> None:
    """Per-field checks, recursing into `rule.nested` along the same branches
    ValidateBatch compiles (stages/validate.py:505-508): struct children for
    type 'object', list-item children for type 'array'. A nested rule over a
    plain string column is JSON-payload mode (ValidateJsonDocs) — its shape is
    only known at runtime, so it is skipped here."""
    names = set(schema.names)
    for key, rule in rules.items():
        path = prefix + key
        if key not in names:
            findings.append(
                LintFinding(
                    "minor" if rule.optional else "critical",
                    path,
                    "missing_column",
                    f"spec field {path!r} has no column in the observed schema"
                    + (" (optional)" if rule.optional else " — every row will be a 'missing' violation"),
                )
            )
            continue
        col_type = schema.field(key).type
        col_kind = arrow_js_typeof(col_type)
        if rule.type is not None and rule.type != col_kind and rule.type in (
            "string",
            "number",
            "boolean",
            "timestamp",
            "array",
            "object",
        ):
            findings.append(
                LintFinding(
                    "critical",
                    path,
                    "type_conflict",
                    f"rule type {rule.type!r} vs column type {col_kind!r} "
                    f"({col_type}) — every non-null row will fail",
                )
            )
        if rule.regex is not None and col_kind not in ("string", "number"):
            findings.append(
                LintFinding(
                    "minor",
                    path,
                    "regex_on_nonstring",
                    f"regex rule on {col_kind!r} column relies on string coercion",
                )
            )
        if rule.length is not None and col_kind not in ("string", "array"):
            findings.append(
                LintFinding(
                    "minor",
                    path,
                    "length_on_scalar",
                    f"length rule on {col_kind!r} column: JS `.length` of a "
                    "non-string/array is undefined — the rule fails every truthy row",
                )
            )
        if not rule.nested:
            continue
        if rule.type == "object" and pa.types.is_struct(col_type):
            child = pa.schema([col_type.field(i) for i in range(col_type.num_fields)])
            _lint_rules(rule.nested, child, path + ".", findings)
        elif rule.type == "array" and is_list_kind(col_type):
            item_type = col_type.value_type
            if pa.types.is_struct(item_type):
                child = pa.schema([item_type.field(i) for i in range(item_type.num_fields)])
                _lint_rules(rule.nested, child, path + "[].", findings)
            elif not (is_list_kind(item_type) or pa.types.is_map(item_type)):
                # scalar items walk wrapped `{'': item}` (validate.py:319):
                # only the '' key ever resolves; other required keys are
                # absent on every item.
                item_kind = arrow_js_typeof(item_type)
                for k, krule in rule.nested.items():
                    if k == "":
                        kchild = pa.schema([pa.field("", item_type)])
                        _lint_rules({"": krule}, kchild, path + "[].", findings)
                    elif not krule.optional:
                        findings.append(
                            LintFinding(
                                "critical",
                                f"{path}[].{k}",
                                "missing_column",
                                f"required nested key {k!r} cannot exist on "
                                f"{item_kind!r} list items — every item will be "
                                "a 'missing' violation",
                            )
                        )
            # list/map items walk JS property lookup per rule key
            # (validate.py jswalk) — key resolution depends on runtime item
            # lengths / map contents, so no static verdict is emitted.
        elif col_kind != "string":
            # nestedSchema but the runtime compile gate (validate.py:505-508
            # — type 'object' over struct, 'array' over list) will never
            # fire: the nested rules are silently dead. A string column is
            # the exception — that's JSON-payload mode (ValidateJsonDocs),
            # whose shape is runtime-only.
            findings.append(
                LintFinding(
                    "minor",
                    path,
                    "nested_ignored",
                    f"nestedSchema present but rule type {rule.type!r} over "
                    f"{col_kind!r} column never compiles the nested checks — "
                    "set type 'object' (struct column) or 'array' (list "
                    "column) for them to run",
                )
            )


def spec_lint(spec: Spec, schema: pa.Schema) -> list[LintFinding]:
    findings: list[LintFinding] = []
    names = set(schema.names)

    _lint_rules(
        {r.name: r for r in spec.fields.values()}, schema, "", findings
    )

    ruled = {r.name for r in spec.fields.values()}
    for name in schema.names:
        if name not in ruled:
            findings.append(
                LintFinding(
                    "minor",
                    name,
                    "unvalidated_column",
                    f"column {name!r} has no rule (extra data fields are ignored, "
                    "matching the reference's schema-driven walk)",
                )
            )

    # wide-check columns must exist
    t = spec.table
    wide_cols = set()
    if t.unique:
        wide_cols.update(t.unique)
    if t.order:
        wide_cols.update({t.order.by, t.order.within, t.order.ts_column})
    for r in t.refs:
        wide_cols.update({r.field, r.when_field})
    for c in sorted(wide_cols - names):
        findings.append(
            LintFinding(
                "critical",
                c,
                "missing_wide_column",
                f"table-level checks reference column {c!r} which is absent",
            )
        )
    return findings
