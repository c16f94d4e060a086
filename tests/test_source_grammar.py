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


# The only functions that may use a `_checked_*` builder of `medsum.model`:
# each passes it values it has already checked, as the builder's docstring
# asks, so no outside input reaches a builder unchecked.
_BUILDER_CALLERS = {
    "model._check_encounter",
    "promptkit.parse_entity_list",
    "chain.collate",
    "chain.resolve_unknowns",
    "chain._traced",
}


def _model_builders() -> set[str]:
    """The names of the `_checked_*` functions `medsum.model` defines."""
    tree = ast.parse((ROOT / "src" / "medsum" / "model.py").read_text(encoding="utf-8"))
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_checked_")}


def _builder_uses(source: str, module: str, builders: set[str]) -> list[str]:
    """Each use of a name in `builders` in `source` outside `_BUILDER_CALLERS`,
    as `<module>.<top-level definition>:<line>: <name>`, where a use at
    module level has the definition `<module>`. A use is a name or
    attribute read, or a builder imported under another name, which would
    hide its calls."""
    uses = []
    for top in ast.parse(source).body:
        owner = f"{module}.{getattr(top, 'name', '<module>')}"
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias) and node.asname:
                name = node.name
            else:
                continue
            if name in builders and owner not in _BUILDER_CALLERS:
                uses.append(f"{owner}:{node.lineno}: {name}")
    return uses


def test_only_the_checked_paths_use_a_builder():
    builders = _model_builders()
    assert {"_checked_turn", "_checked_entity", "_checked_ledger"} <= builders
    paths = sorted((ROOT / "src" / "medsum").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    assert len(paths) > 10
    uses = []
    for path in paths:
        uses += _builder_uses(path.read_text(encoding="utf-8"), path.stem, builders)
    assert uses == []


def test_a_builder_used_elsewhere_is_found():
    source = (
        "from .model import _checked_entity, _checked_ledger as ledger_of\n"
        "def collate(lists):\n"
        "    return _checked_entity('a', None, ())\n"
        "def load(raw):\n"
        "    return model._checked_trace_entry(raw, '', {}, '{}')\n"
        "ENTITY = _checked_entity('b', None, ())\n"
    )
    builders = {"_checked_entity", "_checked_ledger", "_checked_trace_entry"}
    assert _builder_uses(source, "chain", builders) == [
        "chain.<module>:1: _checked_ledger",
        "chain.load:5: _checked_trace_entry",
        "chain.<module>:6: _checked_entity",
    ]


# The one module that may log: the replay store's torn-tail warning and the
# client's retry DEBUG line. Every other module hands what went wrong to its
# caller, which reports it once (a failed encounter's `FAIL` line, say).
_LOGGING_MODULES = {"backend"}


def _logging_imports(source: str, module: str) -> list[str]:
    """Each import of `logging` or a submodule of it in `source`, as
    `<module>:<line>`, unless `module` is one of `_LOGGING_MODULES`."""
    if module in _LOGGING_MODULES:
        return []
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(name == "logging" or name.startswith("logging.") for name in names):
            lines.add(node.lineno)
    return [f"{module}:{line}" for line in sorted(lines)]


def test_only_the_backend_logs():
    paths = sorted((ROOT / "src" / "medsum").glob("*.py"))
    assert len(paths) > 5
    found = []
    for path in paths:
        found += _logging_imports(path.read_text(encoding="utf-8"), path.stem)
    assert found == []


def test_a_logging_import_elsewhere_is_found():
    source = (
        "import hashlib\n"
        "def f():\n"
        "    import logging.handlers\n"
        "from logging import getLogger\n"
        "from .logging_setup import x\n"
    )
    assert _logging_imports(source, "chain") == ["chain:3", "chain:4"]
    assert _logging_imports(source, "backend") == []
    assert _logging_imports("import logging\n", "backend") == []
