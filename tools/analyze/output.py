"""Report renderers: text, json, SARIF 2.1.0, GitHub annotations.

``text`` and ``json`` are the human/scripting formats; ``sarif`` is
consumed by code-scanning UIs (uploaded as a CI artifact by the
``lint`` workflow job); ``github`` emits
``::error file=...`` workflow commands so violations surface as inline
PR annotations.
"""

from __future__ import annotations

import json
from typing import Dict, List

from tools.analyze.engine import (
    PROJECT_REGISTRY,
    REGISTRY,
    Report,
    TOOL_VERSION,
    Violation,
)

__all__ = ["FORMATS", "render"]

_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _rule_meta(code: str) -> Dict[str, str]:
    rule_cls = REGISTRY.get(code) or PROJECT_REGISTRY.get(code)
    if rule_cls is None:
        return {"name": code, "rationale": ""}
    return {"name": rule_cls.name, "rationale": rule_cls.rationale}


def render_text(report: Report) -> str:
    lines = [violation.render() for violation in report.violations]
    lines.extend(report.errors)
    for problem in report.waiver_errors:
        lines.append(f"waiver problem: {problem}")
    counts = report.counts_by_code
    summary = ", ".join(f"{code}×{n}" for code, n in counts.items()) or "clean"
    lines.append(
        f"dhslint: {len(report.violations)} violation(s) "
        f"[{summary}], {report.suppressed} suppressed, "
        f"{report.files} file(s) checked"
    )
    if report.waived:
        lines.append(f"dhslint: {len(report.waived)} violation(s) waived")
    lookups = report.cache_hits + report.cache_misses
    if lookups:
        rate = 100.0 * report.cache_hits / lookups
        lines.append(
            f"dhslint: cache {report.cache_hits}/{lookups} hit(s) ({rate:.0f}%)"
        )
    if report.dataflow is not None:
        stats = ", ".join(f"{key}={value}" for key, value in sorted(report.dataflow.items()))
        lines.append(f"dhslint: dataflow [{stats}]")
    lines.append(f"dhslint: finished in {report.elapsed:.2f}s")
    return "\n".join(lines)


def _violation_dict(violation: Violation) -> Dict[str, object]:
    return {
        "code": violation.code,
        "message": violation.message,
        "path": violation.path,
        "line": violation.line,
        "col": violation.col,
    }


def render_json(report: Report) -> str:
    payload = {
        "violations": [_violation_dict(v) for v in report.violations],
        "waived": [_violation_dict(v) for v in report.waived],
        "errors": report.errors,
        "waiver_errors": report.waiver_errors,
        "counts": report.counts_by_code,
        "suppressed": report.suppressed,
        "files": report.files,
        "cache": {"hits": report.cache_hits, "misses": report.cache_misses},
        "dataflow": report.dataflow,
        "elapsed": round(report.elapsed, 4),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_sarif(report: Report) -> str:
    codes = sorted({v.code for v in report.violations})
    rules = []
    for code in codes:
        meta = _rule_meta(code)
        rules.append(
            {
                "id": code,
                "name": meta["name"],
                "shortDescription": {"text": meta["name"] or code},
                "fullDescription": {"text": meta["rationale"]},
                "defaultConfiguration": {"level": "error"},
            }
        )
    results = []
    for violation in report.violations:
        results.append(
            {
                "ruleId": violation.code,
                "ruleIndex": codes.index(violation.code),
                "level": "error",
                "message": {"text": violation.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": violation.path.replace("\\", "/"),
                                "uriBaseId": "SRCROOT",
                            },
                            "region": {
                                "startLine": violation.line,
                                "startColumn": violation.col + 1,
                            },
                        }
                    }
                ],
            }
        )
    payload = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "dhslint",
                        "informationUri": "docs/STATIC_ANALYSIS.md",
                        "version": TOOL_VERSION,
                        "rules": rules,
                    }
                },
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "results": results,
                "invocations": [
                    {
                        "executionSuccessful": not report.errors,
                        "toolExecutionNotifications": [
                            {"level": "error", "message": {"text": err}}
                            for err in [*report.errors, *report.waiver_errors]
                        ],
                    }
                ],
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _escape_github(value: str) -> str:
    """Escape GitHub workflow-command data (order matters: %% first)."""
    return (
        value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def render_github(report: Report) -> str:
    lines: List[str] = []
    for violation in report.violations:
        lines.append(
            f"::error file={_escape_github(violation.path)}"
            f",line={violation.line},col={violation.col + 1}"
            f",title={violation.code}::{_escape_github(violation.message)}"
        )
    for err in report.errors:
        lines.append(f"::error ::{_escape_github(err)}")
    for problem in report.waiver_errors:
        lines.append(f"::error ::{_escape_github('waiver problem: ' + problem)}")
    lines.append(
        f"dhslint: {len(report.violations)} violation(s), "
        f"{len(report.waived)} waived, {report.files} file(s) checked"
    )
    return "\n".join(lines)


FORMATS = {
    "text": render_text,
    "json": render_json,
    "sarif": render_sarif,
    "github": render_github,
}


def render(report: Report, fmt: str) -> str:
    try:
        renderer = FORMATS[fmt]
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}") from None
    return renderer(report)
