"""Every top-level function, class and constant in ``src/molflow`` has a
caller in ``src/``: helpers only tests use belong in ``tests/oracles.py``.
And ``src/molflow`` imports only at module level."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "molflow"


def defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    # dunder names such as __version__ are read by the Python tooling
    return [t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")]


def referenced_names(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.asname or sub.name)
            out.add(sub.name)
    return out


def test_every_top_level_name_in_src_is_used_in_src():
    statements = [(path.name, stmt) for path in sorted(SRC.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    refs = [referenced_names(stmt) for _, stmt in statements]
    # statements referencing each name
    count = Counter(name for r in refs for name in r)
    unused = []
    for (module, stmt), r in zip(statements, refs):
        # a reference from the defining statement itself (a recursive call,
        # a dataclass method naming its own class) does not count
        unused += [(module, name) for name in defined_names(stmt)
                   if count[name] == (name in r)]
    assert not unused, f"defined in src/ but used nowhere there: {unused}"


def test_src_imports_only_at_module_level():
    # an import inside a function runs on every call and hides a dependency
    # from the module's import block
    nested = sorted({f"{path.name}:{node.lineno}"
                     for path in SRC.glob("*.py")
                     for func in ast.walk(ast.parse(path.read_text()))
                     if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                     for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))})
    assert not nested, f"imports inside functions in src/: {nested}"


def test_outside_autodiff_only_fit_step_names_tensor():
    # model functions are plain numpy and return their own backward; the
    # tape appears outside autodiff.py only where fit_step records a loss
    # as one node
    def names_tensor(node: ast.AST) -> bool:
        return ((isinstance(node, ast.Name) and node.id == "Tensor")
                or (isinstance(node, ast.Attribute) and node.attr == "Tensor")
                or (isinstance(node, ast.alias) and "Tensor" in (node.name, node.asname)))

    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "autodiff.py":
            continue
        tree = ast.parse(path.read_text())
        inside_fit_step = {id(node) for func in tree.body
                           if isinstance(func, ast.FunctionDef) and func.name == "fit_step"
                           and path.name == "flow.py" for node in ast.walk(func)}
        found += [f"{path.name}:{getattr(node, 'lineno', '?')}" for node in ast.walk(tree)
                  if names_tensor(node) and id(node) not in inside_fit_step]
    assert not found, f"Tensor named outside flow.fit_step: {found}"
