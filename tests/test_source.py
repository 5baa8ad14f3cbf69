"""Checks on the package source itself."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sqavoid"


def test_no_bare_assert_in_the_package():
    # `python -O` strips assert statements; a failed check must raise a named error.
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"bare assert statements: {found}"


def _calls_to(tree: ast.AST, name: str) -> list[ast.Call]:
    """The calls in a tree to `name` or to an attribute of that name."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_a_reduction_step_is_built_only_where_it_is_checked():
    # `lattice._step` runs the exact checks of a step's certificate on every
    # step it builds; a ReductionStep built anywhere else could skip them.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.rglob("*.py")}
    built = [(name, call.lineno) for name, tree in trees.items() for call in _calls_to(tree, "ReductionStep")]
    step = next(node for node in trees["lattice.py"].body if getattr(node, "name", None) == "_step")
    assert len(built) == 1 and built == [("lattice.py", call.lineno) for call in _calls_to(step, "ReductionStep")]


def _exported(tree: ast.Module) -> set[str]:
    """The names a module lists in `__all__`, if it has one."""
    return {
        name
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    }


def test_no_unused_module_level_import():
    # A module-level import must be referenced in its module or re-exported.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= _exported(tree)
        found += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not found, f"unused imports: {found}"


def _defined_names(node: ast.stmt) -> set[str]:
    """The names a module-level function, class or assignment defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def _private_definitions(tree: ast.Module) -> set[str]:
    """Module-level private functions, classes and assigned names."""
    names = set().union(*map(_defined_names, tree.body))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _stdlib_modules(tree: ast.AST) -> frozenset[str]:
    """The names a tree binds to standard-library modules by `import`."""
    return frozenset(
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.partition(".")[0] in sys.stdlib_module_names
    )


def _references(tree: ast.AST, modules: frozenset[str] = frozenset()) -> set[str]:
    """Names read, attributes taken and names imported anywhere in a tree.

    An attribute taken on one of `modules` (such as `math.gcd`) is the
    module's, so it refers to nothing here.
    """
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id in modules):
                found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {alias.name for alias in node.names}
    return found


def test_every_private_name_has_a_caller():
    # A private helper whose last caller has gone is dead code.
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in sorted(PACKAGE.rglob("*.py"))]
    private = set().union(*map(_private_definitions, trees))
    assert len(private) > 40
    referenced = set().union(*map(_references, trees))
    assert not private - referenced, f"private names nothing refers to: {sorted(private - referenced)}"


# Public names kept with no caller outside the tests, each for a reason.
TEST_ORACLES = {
    "is_perfect_square",  # the square test the suites check witnesses and kernels with
    "least_qnr",  # bench/tracing.py wraps it by name, a string the reach below cannot see
}


def test_every_public_name_has_a_caller():
    # A public name that only the tests reach is dead code, and so is one
    # that only dead code reaches.  Reach starts from the bench, the demos,
    # the package's module-level statements that define nothing (such as
    # cli's `__main__` block) and the oracles above; a re-export in
    # `__init__.py` calls nothing, and neither does an attribute of a
    # standard-library module, such as `math.gcd`.
    root = PACKAGE.parents[1]
    calls: dict[str, set[str]] = {}  # module-level name -> names its definition refers to
    reached = set(TEST_ORACLES)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules = _stdlib_modules(tree)
        for node in tree.body:
            names = _defined_names(node)
            for name in names:
                calls.setdefault(name, set()).update(_references(node, modules))
            if not names:
                reached |= _references(node, modules)
    for path in sorted((root / "bench").rglob("*.py")) + sorted((root / "demos").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        reached |= _references(tree, _stdlib_modules(tree))
    public = {name for name in calls if not name.startswith("_")}
    assert len(public) > 60 and TEST_ORACLES <= public
    todo = list(reached)
    while todo:
        todo.extend(calls.pop(todo.pop(), ()))
    uncalled = sorted(public & calls.keys())
    assert not uncalled, f"public names nothing but the tests reaches: {uncalled}"


def test_every_traced_function_is_defined_where_the_bench_looks():
    # bench/tracing.py wraps each (module, name) of TRACED by looking it up
    # in sqavoid.<module>: a function deleted or moved would break trace mode.
    tracing = ast.parse((PACKAGE.parents[1] / "bench" / "tracing.py").read_text(encoding="utf-8"))
    traced = next(
        ast.literal_eval(node.value)
        for node in tracing.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    )
    assert len(traced) > 10
    missing = []
    for module, name in traced:
        path = PACKAGE / f"{module}.py"
        tree = ast.parse(path.read_text(encoding="utf-8")) if path.exists() else ast.Module(body=[])
        functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        if name not in functions:
            missing.append(f"{module}.{name}")
    assert not missing, f"traced functions sqavoid does not define: {missing}"


def test_only_the_sweep_imports_random():
    # random_local draws seeded pairs; every verifier and every other search
    # is exact, so no other module may sample.
    importers = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == "random" or m.startswith("random.") for m in modules):
                importers.add(path.name)
    assert importers == {"sweep.py"}


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect(run_python):
    # Every `sqavoid` call pays `import sqavoid.cli` first; `dataclasses`
    # alone would cost more than the rest of the package, as it brings in
    # `inspect`, `ast`, `dis` and `tokenize`.  Only modules that the import
    # itself loads count, not those `site` loaded before it.
    code = "import sys\nbefore = set(sys.modules)\nimport sqavoid.cli\nprint(*sorted(set(sys.modules) - before))"
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "sqavoid.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}
