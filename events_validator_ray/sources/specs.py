"""Schema-document sources and the control-plane helpers.

The reference keeps one JSON schema per event name in a GCS bucket
(`${event_name}.json`, validator_src/index.js:45; bucket listing at
streamlit_ev/app/helpers/gcp.py:92-101) plus a 47-parameter master repository
(`repo.json`) whose params are canonicalized into schema rules by
`construct_schema_definition` (streamlit_ev/app/helpers/updater.py:7-83) and
indexed by `find_impacted_schemas` (updater.py:85-93).

Here the bucket is a local/spec directory: load once at driver startup,
compile, and broadcast the `{event_name -> Spec}` plan inside the map stage —
the reference re-downloads per event (AGENTS.md:807); we never do.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Any

from ..spec import Spec, _normalize_value, load_spec


def list_spec_names(spec_dir: str) -> list[str]:
    """Bucket-listing analog (gcp.py:92-101): event names with a spec."""
    return sorted(
        os.path.basename(p).removesuffix(".json")
        for p in glob.glob(os.path.join(spec_dir, "*.json"))
        if os.path.basename(p) != "repo.json"
    )


def load_spec_dir(spec_dir: str) -> dict[str, Spec]:
    """Load every `${event_name}.json` into a compiled plan keyed by event
    name (the broadcast side of the event_name -> schema lookup, SURVEY.md
    §2.4 J1)."""
    out: dict[str, Spec] = {}
    for name in list_spec_names(spec_dir):
        with open(os.path.join(spec_dir, f"{name}.json")) as f:
            out[name] = load_spec(json.load(f), event_name=name)
    return out


def canonicalize_param(param: dict[str, Any]) -> dict[str, Any]:
    """Repo param -> schema rule, following `construct_schema_definition`
    (updater.py:7-83): keeps type/description, casts numeric-string values
    ("1.5" -> 1.5 by the has-a-dot rule, updater.py:30), recurses into nested
    schemas, drops empty/"Any" values and never emits `regex`."""
    rule: dict[str, Any] = {}
    if param.get("type"):
        rule["type"] = param["type"]
    if param.get("description"):
        rule["description"] = param["description"]
    v = param.get("value")
    if v not in (None, "", "Any"):
        rule["value"] = _normalize_value(v)
    if param.get("optional") is True or param.get("required") is False:
        rule["optional"] = True
    nested = param.get("nestedSchema") or param.get("nested")
    if isinstance(nested, dict):
        rule["nestedSchema"] = {k: canonicalize_param(p) for k, p in nested.items()}
    return rule


def save_spec(spec: Spec, spec_dir: str) -> str:
    """Write one `${event_name}.json` schema document (the upload analog of
    streamlit_ev/app/helpers/gcp.py:62-90). Atomic tmp + os.replace; the
    document round-trips through load_spec with an identical spec_hash."""
    from ..spec import spec_to_dict

    payload = spec_to_dict(spec)
    if spec.version is not None:
        payload = {"version": spec.version, **payload}
    return _write_spec_doc(payload, spec_dir, spec.event_name)


def save_spec_dir(specs: dict[str, Spec], spec_dir: str) -> list[str]:
    """Write every spec of a plan back to a directory (bucket-upload analog)."""
    return [save_spec(spec, spec_dir) for spec in specs.values()]


def update_repo_usage(repo: dict[str, Any], spec: Spec) -> dict[str, Any]:
    """Record a schema's field usage in the master param repository — the
    analog of the reference's repo usage update (streamlit_ev/app/helpers.py:
    372-397): every field of `spec` gets `event_name` appended to its
    `usedInSchemas` list (created if the param is new); params no longer used
    by this schema have it removed. Returns the updated repo (copy)."""
    out = {k: dict(v) for k, v in repo.items()}
    fields = set(spec.fields)
    for name in fields:
        meta = out.setdefault(name, {})
        used = list(meta.get("usedInSchemas", []))
        if spec.event_name not in used:
            used.append(spec.event_name)
        meta["usedInSchemas"] = sorted(used)
    for name, meta in out.items():
        if name not in fields and spec.event_name in meta.get("usedInSchemas", []):
            meta["usedInSchemas"] = sorted(
                u for u in meta["usedInSchemas"] if u != spec.event_name
            )
    return out


def save_repo(repo: dict[str, Any], path: str) -> str:
    """Atomic write of the param repository (`repo.json` upload analog)."""
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(repo, f, indent=2, sort_keys=True)
    os.replace(tmp, path)
    return path


def find_impacted_specs(repo: dict[str, Any], param_name: str) -> list[str]:
    """Inverted index param -> usedInSchemas[] (updater.py:85-93)."""
    meta = repo.get(param_name) or {}
    return sorted(meta.get("usedInSchemas", []))


def read_spec_doc(spec_dir: str, event_name: str) -> dict[str, Any]:
    """Raw schema document (export-format dict) for one event — the
    readSchemaToJson analog (gcp.py). Returns {} when absent, matching the
    reference's swallow-and-return-empty behavior (updater.py:100-107)."""
    path = os.path.join(spec_dir, f"{event_name}.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def _write_spec_doc(doc: dict[str, Any], spec_dir: str, event_name: str) -> str:
    os.makedirs(spec_dir, exist_ok=True)
    path = os.path.join(spec_dir, f"{event_name}.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=False)
    os.replace(tmp, path)
    return path


#: document keys the lifecycle ops never treat as parameters (updater.py:161,232)
_DOC_META_KEYS = ("event_name", "version")


def rebuild_dry_run(
    spec_dir: str, event_name: str, param_name: str, new_param: dict[str, Any]
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Dry-run rebuild (rebuild_schema_dry_run, updater.py:95-118): load the
    existing schema document, swap ONE param's rule for the canonicalized new
    repo definition, and return (original_doc, new_doc) WITHOUT writing.
    Missing/empty schema -> ({}, {}), matching the reference. The param is
    only replaced if already present in the document (updater.py:114-116)."""
    import copy

    original = read_spec_doc(spec_dir, event_name)
    if not original:
        return {}, {}
    new_doc = copy.deepcopy(original)
    if param_name in new_doc:
        new_doc[param_name] = canonicalize_param(new_param)
    return original, new_doc


def _norm_health_value(v: Any) -> Any:
    return None if v in ("Any", "", None) else v


def check_spec_health(
    schema_doc: dict[str, Any], repo: dict[str, Any]
) -> dict[str, list[str]]:
    """Schema×repo health report (check_schema_health, updater.py:151-217):
    per param present in BOTH the document and the repo —
    - critical: type mismatch vs the canonicalized repo definition;
    - minor: description or default-value drift (values normalized through
      the Any/empty/None rule; numbers compared as floats), or nested
      key-set / nested type / nested description drift on arrays.
    Params absent from the repo and the event_name/version meta keys are
    skipped, like the reference."""
    health: dict[str, list[str]] = {"critical": [], "minor": []}
    for param_name, schema_param in schema_doc.items():
        if param_name in _DOC_META_KEYS or param_name not in repo:
            continue
        meta = repo[param_name]
        expected = canonicalize_param(meta.get("definition", meta))
        if not isinstance(schema_param, dict):
            # a hand-edited/drifted document can hold a bare scalar where a
            # param definition belongs — that's a shape mismatch, i.e.
            # critical drift, not a crash
            health["critical"].append(param_name)
            continue
        if schema_param.get("type") != expected.get("type"):
            health["critical"].append(param_name)
            continue
        mismatch = schema_param.get("description", "") != expected.get(
            "description", ""
        )
        s_val = _norm_health_value(schema_param.get("value"))
        e_val = _norm_health_value(expected.get("value"))
        if schema_param.get("type") == "number":
            try:
                s_val = float(s_val) if s_val is not None and str(s_val).strip() != "" else None
                e_val = float(e_val) if e_val is not None and str(e_val).strip() != "" else None
            except (TypeError, ValueError):
                pass
        if s_val != e_val:
            mismatch = True
        if expected.get("type") == "array" and "nestedSchema" in expected:
            cur_n = schema_param.get("nestedSchema")
            cur_n = cur_n if isinstance(cur_n, dict) else {}
            exp_n = expected["nestedSchema"]
            if len(cur_n) != len(exp_n):
                mismatch = True
            else:
                for nk, ev in exp_n.items():
                    cv = cur_n.get(nk)
                    if (
                        # a bare scalar where a nested definition belongs is
                        # drift (the same hand-edited-document shape the
                        # top-level non-dict branch handles), not a crash
                        not isinstance(cv, dict)
                        or cv.get("type") != ev.get("type")
                        or cv.get("description", "") != ev.get("description", "")
                    ):
                        mismatch = True
                        break
        if mismatch:
            health["minor"].append(param_name)
    return health


def smart_update(
    spec_dir: str, event_name: str, repo: dict[str, Any]
) -> tuple[bool, list[str]]:
    """Full smart update (update_schema_full, updater.py:219-261): rebuild
    every repo-known param of the schema document from the repo definition,
    PRESERVING the document's custom `value` when the types match (top-level
    and per nested key — the value-preservation rule, updater.py:239-249),
    then write the document back atomically. Returns (updated, errors)."""
    import copy

    current = read_spec_doc(spec_dir, event_name)
    if not current:
        return False, ["Schema not found"]
    new_doc = copy.deepcopy(current)
    updated = False
    for param_name in list(new_doc.keys()):
        if param_name in _DOC_META_KEYS or param_name not in repo:
            continue
        meta = repo[param_name]
        new_props = canonicalize_param(meta.get("definition", meta))
        cur_param = new_doc[param_name]
        # a non-dict entry is the critical-drift shape check_spec_health
        # routes here — rebuild it from the repo outright, no value to keep
        if isinstance(cur_param, dict) and cur_param.get("type") == new_props.get(
            "type"
        ):
            if "value" in cur_param:
                new_props["value"] = cur_param["value"]
            if new_props.get("type") == "array" and "nestedSchema" in new_props:
                cur_nested = cur_param.get("nestedSchema")
                cur_nested = cur_nested if isinstance(cur_nested, dict) else {}
                for nk, nv in new_props["nestedSchema"].items():
                    cn = cur_nested.get(nk)
                    if isinstance(cn, dict) and cn.get("type") == nv.get("type"):
                        if "value" in cn:
                            nv["value"] = cn["value"]
        new_doc[param_name] = new_props
        updated = True
    if updated:
        _write_spec_doc(new_doc, spec_dir, event_name)
        return True, []
    return False, ["No updates needed"]


def sync_spec_dir(
    spec_dir: str, repo: dict[str, Any]
) -> dict[str, dict[str, Any]]:
    """Explorer bulk-sync analog (explorer.py:41-103): health-check every
    schema document in the directory against the repo, then smart-update the
    ones with findings (value preservation on type match). Returns
    {event_name: {"health": {...}, "updated": bool}} — the per-schema badge
    report. Specs are small and local; a driver-side loop is the right
    shape (the reference's 10-thread GCS pool exists only for network
    latency, gcp.py:114-122)."""
    report: dict[str, dict[str, Any]] = {}
    for name in list_spec_names(spec_dir):
        # per-document failures are collected, not raised — one malformed
        # file must not abort the sweep for every other spec (the
        # reference's per-schema swallow, updater.py:100-107)
        try:
            doc = read_spec_doc(spec_dir, name)
            health = check_spec_health(doc, repo)
            updated = False
            if health["critical"] or health["minor"]:
                updated, _ = smart_update(spec_dir, name, repo)
            report[name] = {"health": health, "updated": updated}
        except Exception as e:
            report[name] = {"health": None, "updated": False, "error": str(e)}
    return report


def apply_updates(
    schema_map: dict[str, dict[str, Any]], spec_dir: str
) -> tuple[int, list[str]]:
    """Batch apply (apply_updates, updater.py:120-134): write each
    event_name -> new document; per-document failures are collected, not
    raised. Returns (success_count, errors)."""
    success = 0
    errors: list[str] = []
    for event_name, doc in schema_map.items():
        try:
            _write_spec_doc(doc, spec_dir, event_name)
            success += 1
        except OSError as e:  # pragma: no cover - filesystem failure path
            errors.append(f"{event_name}: {e}")
    return success, errors


def spec_from_repo(repo: dict[str, Any], event_name: str) -> Spec:
    """Rebuild a spec for an event from the param repository (the dry-run
    rebuild analog, updater.py:95-118)."""
    fields = {
        name: canonicalize_param(meta.get("definition", meta))
        for name, meta in repo.items()
        if event_name in (meta.get("usedInSchemas") or [])
    }
    return load_spec(fields, event_name=event_name)


def infer_spec(
    profile: dict[str, dict[str, Any]],
    types: dict[str, str],
    event_name: str = "inferred",
) -> Spec:
    """Build a compiled Spec from a capped-distinct profile
    (stages/sketches.capped_distinct_profile) — the constructive inverse of
    the reference's hand-authored schema editor (streamlit_ev/app/pages):

    - every profiled column becomes a rule with the caller-declared `type`
      (the profile's renders are physical, the rule type is the logical one);
    - columns with observed nulls get `optional: true`;
    - a column whose full value set fit under the cap with exactly ONE value,
      at most ENUM_VALUE_MAX_LEN chars long, gets an exact `value` rule
      (the reference's constant-param pattern,
      e.g. GA4 Recommended's fixed-value params).

    Multi-value enums are NOT emitted as rules: the reference rule language
    has no value-set constraint (value is scalar, validationHelpers.js:108),
    so those stay advisory in the profile/query output.
    """
    from ..stages.sketches import ENUM_VALUE_MAX_LEN

    fields: dict[str, Any] = {}
    for col, p in profile.items():
        rule: dict[str, Any] = {"type": types[col]}
        if p["n_nulls"] > 0:
            rule["optional"] = True
        # mirrors q_spec_suggest's enum qualification: the profile keeps only
        # a 65-char prefix of each raw value, so a longer constant (or two
        # values sharing that prefix) must not become a value rule
        if (
            types[col] == "string"
            and len(p["values"]) == 1
            and p["max_len"] <= ENUM_VALUE_MAX_LEN
            and p["n_distinct_capped"] == 1
        ):
            rule["value"] = p["values"][0]
        fields[col] = rule
    return load_spec(fields, event_name=event_name)
