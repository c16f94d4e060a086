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


def _unused_imports(source: str, filename: str) -> list[str]:
    """The names `source` imports but neither uses nor lists in `__all__`,
    as `<file>:<line>: <name>`. A use is a name read or written anywhere in
    the module, in a string annotation too; scopes are not told apart."""
    tree = ast.parse(source, filename)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a string annotation such as "CompletionRequest"
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except SyntaxError:
                pass
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{filename}:{line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    """A name left imported after the code that used it is gone (a prompt
    kind no longer passed, say) is dead weight a reader has to check."""
    paths = sorted((ROOT / "src" / "medsum").glob("*.py"))
    assert len(paths) > 5
    unused = []
    for path in paths:
        if path.name != "__init__.py":
            unused += _unused_imports(path.read_text(encoding="utf-8"), path.name)
    assert unused == []


def test_an_import_left_behind_is_found():
    source = (
        "from .model import Method, PromptKind\n"
        "import http.client\n"
        "__all__ = ['Method']\n"
        "def f() -> 'int':\n"
        "    return http.client.OK\n"
    )
    assert _unused_imports(source, "m.py") == ["m.py:1: PromptKind"]
