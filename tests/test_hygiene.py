"""Leftovers in the package source, found by reading it with ast and
tokenize, and the README's lists of verdicts and exit codes.

Three kinds of leftover fail: a module that imports a name it never
uses; a module-level private function or class (one named _x) that
nothing in the package references outside its own body; and a
backticked Python name in a docstring or comment that names nothing the
package defines, such as a deleted function.  The re-exports of
__init__.py are exempt from the first.  A cache without a bound fails
too: every functools.lru_cache names an int maxsize, and functools.cache
is not used.  The README's table of resource guards names every guard
the package raises, and no other.
"""

import ast
import re
import tokenize
from pathlib import Path

from liftcert import cli, lifting

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liftcert"


def _modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _references(node, skip=None):
    """The names and attribute names that node's subtree mentions,
    leaving out the subtree skip."""
    found = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_import_is_used():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def test_every_private_definition_is_referenced():
    modules = _modules()
    unreferenced = []
    for name, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            if not any(node.name in _references(other, skip=node)
                       for other in modules.values()):
                unreferenced.append(f"{name}: {node.name}")
    assert unreferenced == []


def _defined_names(modules):
    """Every name the package defines: its modules, and the functions,
    classes, parameters, variables and attributes that its code binds."""
    names = {Path(name).stem for name in modules}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)):
                names.add(node.attr)
    return names


def _docs_and_comments(path, tree):
    """The docstrings and comments of one module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            doc = ast.get_docstring(node)
            if doc:
                yield doc
    with path.open(encoding="utf-8") as source:
        for token in tokenize.generate_tokens(source.readline):
            if token.type == tokenize.COMMENT:
                yield token.string


def test_every_backticked_name_is_defined():
    modules = _modules()
    defined = _defined_names(modules)
    stale = []
    for name, tree in modules.items():
        for text in _docs_and_comments(PACKAGE / name, tree):
            for span in re.findall(r"`([A-Za-z_][\w.]*)(?:\(\))?`", text):
                if not all(part in defined for part in span.split(".")):
                    stale.append(f"{name}: {span}")
    assert stale == []


def _is_lru_cache(node):
    return (isinstance(node, ast.Attribute) and node.attr == "lru_cache"
            or isinstance(node, ast.Name) and node.id == "lru_cache")


def test_every_cache_is_bounded():
    # no unbounded global state: a maxsize is an int literal or a
    # module-level name bound to one
    unbounded = []
    for name, tree in _modules().items():
        ints = {target.id for node in tree.body
                if isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Constant)
                and type(node.value.value) is int
                for target in node.targets if isinstance(target, ast.Name)}
        sized = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _is_lru_cache(node.func):
                size = {k.arg: k.value for k in node.keywords}.get(
                    "maxsize", node.args[0] if node.args else None)
                if (isinstance(size, ast.Constant) and type(size.value) is int
                        or isinstance(size, ast.Name) and size.id in ints):
                    sized.add(node.func)
        for node in ast.walk(tree):
            if _is_lru_cache(node) and node not in sized:
                unbounded.append(f"{name}:{node.lineno}: lru_cache")
            elif (isinstance(node, ast.Attribute) and node.attr == "cache"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "functools"
                    or isinstance(node, ast.ImportFrom)
                    and node.module == "functools"
                    and any(a.name == "cache" for a in node.names)):
                unbounded.append(f"{name}:{node.lineno}: functools.cache")
    assert unbounded == []


def _constants(module, prefix):
    return sorted(value for name, value in vars(module).items()
                  if name.startswith(prefix))


def test_readme_lists_every_verdict_and_exit_code():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    verdicts = re.search(r"the verdict\s+\(([^)]*)\)", text)[1]
    assert sorted(re.findall(r"`(\w+)`", verdicts)) == (
        _constants(lifting, "VERDICT_"))
    codes = re.search(r"Exit codes: ([^;]*);", text)[1]
    assert sorted(int(c) for c in re.findall(r"`(\d+)`", codes)) == (
        _constants(cli, "EXIT_"))


def _guard_names(modules):
    """The bound names of the package's guards: the string first
    argument of every ResourceLimitExceeded(...) and _check_size(...)
    call."""
    return {node.args[0].value
            for tree in modules.values() for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("ResourceLimitExceeded", "_check_size")
            and node.args and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)}


def test_readme_lists_every_guard():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = set(re.findall(r'^\| "([^"]+)" \|', text, re.MULTILINE))
    names = _guard_names(_modules())
    assert "univariate Rabin work" in names  # the scan finds the guards
    assert listed == names
