"""Every public name of `src/` and `bench/` has a caller there.

A module's `__all__` name counts as used when some module of `src/` or
`bench/` reads it: by name in its own module, outside its definition, or
through an import of it or an attribute of its module.  Reads made inside
a public definition count only once that definition is used.  A public
method or property of an exported class counts as used when some module
of `src/` or `bench/` reads an attribute of that name.  A name that only
the tests read belongs in `tests/oracles.py`, or nowhere.  Likewise a
defaulted parameter of a public function or method that `src/` or `bench/`
calls must be passed at one of those calls, or only the tests vary it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "motifspectra"


def _modules() -> dict[str, ast.Module]:
    """Parsed modules by dotted name; the package's own `__init__` is `motifspectra`."""
    out = {}
    for path in sorted((ROOT / "src" / PACKAGE).glob("*.py")):
        name = PACKAGE if path.stem == "__init__" else f"{PACKAGE}.{path.stem}"
        out[name] = ast.parse(path.read_text(), str(path))
    for path in sorted((ROOT / "bench").glob("*.py")):
        out[f"bench.{path.stem}"] = ast.parse(path.read_text(), str(path))
    return out


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _source(module: str, node: ast.ImportFrom) -> str:
    """Dotted name of the module that `node` imports from."""
    if not node.level:
        return node.module
    base = module if module == PACKAGE else module.rsplit(".", 1)[0]
    return f"{base}.{node.module}" if node.module else base


def _references(module: str, tree: ast.Module) -> dict[str | None, set[tuple[str, str]]]:
    """(module, name) pairs that `tree` reads, by the top-level definition that reads them.

    Module-level code reads under None; a definition's reads of its own name
    are left out.
    """
    aliases = {}  # local name -> module it stands for
    found: dict[str | None, set[tuple[str, str]]] = {None: set()}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            source = _source(module, node)
            for alias in node.names:
                found[None].add((source, alias.name))
                aliases[alias.asname or alias.name] = f"{source}.{alias.name}"
    scopes = [(tree, None)]
    while scopes:
        node, owner = scopes.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and owner is None:
                found.setdefault(child.name, set())
                scopes.append((child, child.name))
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load) and child.id != owner:
                found[owner].add((module, child.id))
            if isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name):
                found[owner].add((aliases.get(child.value.id, child.value.id), child.attr))
            scopes.append((child, owner))
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = _modules()
    exported = {(module, name) for module, tree in modules.items() for name in _exported(tree)}
    reads = {(module, owner): r for module, tree in modules.items() for owner, r in _references(module, tree).items()}
    # a public name that nothing uses lends its own reads no weight: iterate to the fixed point
    used: set[tuple[str, str]] = set()
    while True:
        now = set().union(*(r for key, r in reads.items() if key not in exported or key in used))
        if now == used:
            break
        used = now
    unused = sorted(f"{module}.{name}" for module, name in exported - used)
    assert not unused, f"public names that only the tests use: {unused}"


def _methods(tree: ast.Module, exported: list[str]) -> list[tuple[str, str]]:
    """(class, name) of every public method and property of the exported classes."""
    return [
        (node.name, item.name)
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in exported
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
    ]


def test_every_public_method_has_a_caller_outside_the_tests():
    modules = _modules()
    read = {
        node.attr
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    methods = [
        (module, owner, name) for module, tree in modules.items() for owner, name in _methods(tree, _exported(tree))
    ]
    assert methods, "no public methods found: the parse is broken"
    unused = sorted(f"{module}.{owner}.{name}" for module, owner, name in methods if name not in read)
    assert not unused, f"public methods that only the tests use: {unused}"


def _calls(modules: dict[str, ast.Module]) -> dict[tuple[str | None, str], list[ast.Call]]:
    """Calls in `src/` and `bench/` by (module, function) called; a method call is keyed (None, name)."""
    out: dict[tuple[str | None, str], list[ast.Call]] = {}
    for module, tree in modules.items():
        imported = {
            alias.asname or alias.name: f"{_source(module, node)}.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name):
                key = tuple(imported[f.id].rsplit(".", 1)) if f.id in imported else (module, f.id)
            elif isinstance(f, ast.Attribute):
                key = (imported.get(f.value.id) if isinstance(f.value, ast.Name) else None, f.attr)
            else:
                continue
            out.setdefault(key, []).append(node)
    return out


def _defaulted(fn: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """(name, position in a call) of each defaulted parameter; None for keyword-only ones."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = [(arg.arg, k - method) for k, arg in enumerate(positional) if k >= first]
    return out + [(arg.arg, None) for arg, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and position < len(call.args)


def test_every_default_is_passed_by_a_caller_outside_the_tests():
    modules = _modules()
    calls = _calls(modules)
    checked, unpassed = [], []
    for module, tree in modules.items():
        if module.startswith("bench."):
            continue
        defs = [(None, node) for node in tree.body]
        defs += [(node.name, item) for node in tree.body if isinstance(node, ast.ClassDef) for item in node.body]
        for owner, fn in defs:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            # the figure builders are called through `figures.FIGURES` only: no static call site
            sites = calls.get((module, fn.name) if owner is None else (None, fn.name), [])
            for name, position in _defaulted(fn, owner is not None) if sites else ():
                label = f"{module}.{f'{owner}.' if owner else ''}{fn.name}({name})"
                checked.append(label)
                if not any(_passes(call, name, position) for call in sites):
                    unpassed.append(label)
    assert "motifspectra.cli.main(argv)" in checked, "the call sites were not found: the parse is broken"
    assert not unpassed, f"defaulted parameters that only the tests pass: {unpassed}"
