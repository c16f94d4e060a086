"""Every Python file of the project parses as Python 3.10, the oldest version
`pyproject.toml` allows, so grammar newer than that (`except*`, say) is
caught by a test run on any later interpreter."""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_every_source_file_parses_as_python_3_10():
    paths = sorted(p for top in ("src", "tests", "bench") for p in (ROOT / top).rglob("*.py"))
    assert len(paths) > 20
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failures == []
