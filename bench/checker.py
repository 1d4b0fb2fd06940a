"""Known-answer checks of one job's exit code and report.

Reports come in two formats.  JSON reports are parsed with `json`; text
reports are parsed back into the same nested shape (`result` values become
strings), so one list of expectations serves both formats.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Tuple

from workloads import Expect

_CLAIM_LINE = re.compile(r"  \[(.*?)\] (.*): claimed (.*?); derived (.*)$")
_MARKS = {"AGREE": True, "DIFFER": False}


def _indent(line: str) -> int:
    return (len(line) - len(line.lstrip(" "))) // 2


def _parse_block(lines: List[str], i: int, level: int) -> Tuple[object, int]:
    """Invert the CLI's indented rendering of nested dicts and lists."""
    if i >= len(lines) or _indent(lines[i]) < level:
        return [], i
    is_list = lines[i].strip().startswith("-")
    out: object = [] if is_list else {}
    while i < len(lines) and _indent(lines[i]) == level:
        s = lines[i].strip()
        if is_list:
            if s == "-":
                value, i = _parse_block(lines, i + 1, level + 1)
            else:
                value, i = s[2:], i + 1
            out.append(value)
        elif ": " in s:
            key, value = s.split(": ", 1)
            out[key] = value
            i += 1
        else:
            out[s.rstrip(":")], i = _parse_block(lines, i + 1, level + 1)
    return out, i


def parse_text_report(text: str) -> Dict:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("== jetlie "):
        raise ValueError("not a jetlie text report")
    report: Dict = {"command": lines[0][len("== jetlie "):-len(" ==")], "claims": []}
    i = lines.index("result:") + 1
    report["result"], i = _parse_block(lines, i, 1)
    if i < len(lines) and lines[i] == "derived vs claimed:":
        for line in lines[i + 1:]:
            m = _CLAIM_LINE.match(line)
            if not m:
                raise ValueError(f"unparsed claim line {line!r}")
            mark, name, claimed, derived = m.groups()
            report["claims"].append({
                "name": name, "claimed": claimed, "derived": derived,
                "agrees": _MARKS.get(mark, mark),
            })
    return report


def _as_text(value):
    if isinstance(value, list):
        return [_as_text(v) for v in value]
    return str(value)


def _lookup(report: Dict, path: str):
    node = report
    for part in path.split("."):
        node = node[int(part)] if isinstance(node, list) else node[part]
    return node


def check(expect: Expect, fmt: str, code: Optional[int], stdout: str) -> List[str]:
    """Mismatches between a job's outcome and its expected answer; empty if none."""
    problems = []
    if code != expect.exit:
        problems.append(f"exit code {code}, expected {expect.exit}")
    if not expect.fields and not expect.claims:
        return problems
    try:
        report = json.loads(stdout) if fmt == "json" else parse_text_report(stdout)
    except ValueError as err:
        return problems + [f"unreadable report: {err}"]
    norm = (lambda v: v) if fmt == "json" else _as_text
    for path, want in expect.fields.items():
        try:
            got = _lookup(report, path)
        except (KeyError, IndexError, TypeError, ValueError):
            problems.append(f"missing field {path}")
            continue
        if got != norm(want):
            problems.append(f"{path} = {got!r}, expected {norm(want)!r}")
    for name, want in expect.claims.items():
        agrees, derived = want if isinstance(want, tuple) else (want, None)
        rows = [row for row in report.get("claims", []) if row["name"] == name]
        if not rows:
            problems.append(f"missing claim row {name!r}")
        for row in rows:
            if row["agrees"] != agrees:
                problems.append(f"claim {name!r} agrees={row['agrees']!r}, expected {agrees!r}")
            if derived is not None and row["derived"] != derived:
                problems.append(f"claim {name!r} derived={row['derived']!r}, expected {derived!r}")
    return problems
