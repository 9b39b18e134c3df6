"""Every known defect the suite tolerates has a row in docs/KNOWN_DEFECTS.md.

The suite tolerates a defect in two ways: a ``strict=True`` xfail under
``tests/``, or a ``--deselect`` in CI's workflow.  Each must name its
test id in the defect table, so the table stays the one place that
lists what is known to be wrong.  Strict xfails are found in the test
sources (a marker on a test, a module-level marker a test uses, or the
``marks=`` of a ``pytest.param``); one whose test cannot be told fails
here too, rather than going unlisted.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFECTS = (ROOT / "docs" / "KNOWN_DEFECTS.md").read_text()


def _is_strict_xfail(node):
    """Whether ``node`` is a ``...xfail(..., strict=True)`` call."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    return name == "xfail" and any(
        kw.arg == "strict" and isinstance(kw.value, ast.Constant) and kw.value.value is True
        for kw in node.keywords
    )


def _strict_marks(tree):
    """Module-level names bound to a strict xfail marker -> that marker."""
    names = {}
    for statement in tree.body:
        if isinstance(statement, ast.Assign) and _is_strict_xfail(statement.value):
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    names[target.id] = statement.value
    return names


def _marks_strict(node, names):
    return _is_strict_xfail(node) or (isinstance(node, ast.Name) and node.id in names)


def _param_id(call):
    """The id pytest gives a one-value ``pytest.param``, if it is plain."""
    for kw in call.keywords:
        if kw.arg == "id" and isinstance(kw.value, ast.Constant):
            return str(kw.value.value)
    if len(call.args) == 1 and isinstance(call.args[0], ast.Constant):
        return str(call.args[0].value)
    return None


def _tests(tree):
    """``(qualified name, function node)`` of every test in a module."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}::{item.name}", item


def strict_xfails():
    """Test ids of every strict xfail, and the markers no test could be
    found for."""
    ids, orphans = [], []
    for path in sorted((ROOT / "tests").rglob("*.py")):
        tree = ast.parse(path.read_text())
        names = _strict_marks(tree)
        rel = path.relative_to(ROOT).as_posix()
        claimed = set()

        def claim(marker):
            claimed.add(id(names[marker.id] if isinstance(marker, ast.Name) else marker))

        for qualname, function in _tests(tree):
            for decorator in function.decorator_list:
                if _marks_strict(decorator, names):
                    ids.append(f"{rel}::{qualname}")
                    claim(decorator)
                for call in ast.walk(decorator):
                    if not (isinstance(call, ast.Call) and getattr(call.func, "attr", "") == "param"):
                        continue
                    for kw in call.keywords:
                        if kw.arg == "marks" and _marks_strict(kw.value, names):
                            ids.append(f"{rel}::{qualname}[{_param_id(call)}]")
                            claim(kw.value)
        orphans.extend(
            f"{rel}:{node.lineno}"
            for node in ast.walk(tree)
            if _is_strict_xfail(node) and id(node) not in claimed
        )
    return ids, orphans


def ci_deselects():
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    return re.findall(r'--deselect\s+"?([^"\s]+)"?', workflow)


def test_every_strict_xfail_has_a_row():
    ids, orphans = strict_xfails()
    assert not orphans, f"strict xfails whose test cannot be told: {orphans}"
    assert ids, "found no strict xfail: the scan no longer sees them"
    missing = [test_id for test_id in ids if test_id not in DEFECTS]
    assert not missing, f"strict xfails with no row in docs/KNOWN_DEFECTS.md: {missing}"


def test_every_ci_deselect_has_a_row():
    deselects = ci_deselects()
    assert deselects, "found no --deselect in ci.yml: the scan no longer sees them"
    missing = [test_id for test_id in deselects if test_id not in DEFECTS]
    assert not missing, f"CI deselects with no row in docs/KNOWN_DEFECTS.md: {missing}"
