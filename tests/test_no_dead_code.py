"""Every top-level function and class, and every method and property of a
class, of the package is used by the program.

A definition is used when ``src/`` or ``bench/`` refers to it outside its own
body.  Names are resolved per file: a bare name refers to a definition when it
is one of the module's own top-level definitions or was imported from the
package under that name (``from .syntax import size``, ``from mulam.syntax
import size as sz``), and an attribute refers to one when it is read off a
package module (``syntax.size``, ``mulam.syntax.size``).  A local variable
that shares a definition's name in the same module still counts as a use.
A method or property is used when ``src/`` or ``bench/`` reads an attribute
of its name (``.name``) outside its own definition; dunders, which Python
calls, are exempt.  What only the tests call belongs in ``tests/``.  The
exceptions are documented entry points, listed with the reason each one
stays (a method as ``Class.name``).

The test modules are held to the same rule for what they import: a name a
module imports must be referred to somewhere in that module's code (code in
strings, run with ``exec`` or in a subprocess, imports its own names).
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
TESTS = sorted((ROOT / "tests").glob("*.py"))
PKG = ROOT / "src" / "mulam"
PROGRAM = sorted(PKG.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
MODULES = {p.stem for p in PKG.glob("*.py")} - {"__init__"}

ENTRY_POINTS = {
    "alpha_eq": "exported from the package top level as mulam.alpha_eq",
    "is_hnf": "the head-normal-form predicate of both syntaxes",
    "step_sum": "one step of a whole sum by a named strategy",
    "joinable": "whether two sums reach a common sum in the reduction graph",
    "leq_truncated": "the approximation order on lambda-mu terms, truncated",
    "nft_eq_truncated": "equality of truncated normal-form sets",
    "subst": "capture-free substitution of a free variable",
    "gen_random": "seeded term generator for either syntax",
    "compositions_of": "integer compositions, the counting core of bag splits",
    "church_true": "the boolean combinator true",
    "church_false": "the boolean combinator false",
    "pair_of": "the pairing combinator",
    "omega": "the looping term, the standard unsolvable example",
    "Sum.scale": "public Sum arithmetic; the reference explorer in tests/test_oracle.py uses it",
}

Def = tuple[str, str]  # (module, name)


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _top_defs(tree: ast.Module) -> list[str]:
    return [s.name for s in tree.body
            if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _package_module(path: pathlib.Path, node: ast.ImportFrom) -> str | None:
    """The package module an import reads from ('' for the package itself)."""
    if path.parent == PKG and node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module == "mulam":
        return ""
    if node.level == 0 and (node.module or "").startswith("mulam."):
        return node.module.removeprefix("mulam.")
    return None


def _bindings(path: pathlib.Path, tree: ast.Module, reexports: dict[str, Def]):
    """What the file's names stand for: definitions of the package, and
    aliases of the package or of its modules ('' is the package)."""
    names: dict[str, Def] = {}
    modules: dict[str, str] = {}
    if path.parent == PKG and path.stem in MODULES:
        names.update((n, (path.stem, n)) for n in _top_defs(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "mulam" or a.name.startswith("mulam."):
                    if a.asname is None:
                        modules["mulam"] = ""
                    else:
                        modules[a.asname] = a.name.removeprefix("mulam").lstrip(".")
        elif isinstance(node, ast.ImportFrom):
            mod = _package_module(path, node)
            if mod is None:
                continue
            for a in node.names:
                alias = a.asname or a.name
                if mod == "" and a.name in MODULES:
                    modules[alias] = a.name
                elif mod == "":
                    if a.name in reexports:
                        names[alias] = reexports[a.name]
                else:
                    names[alias] = (mod, a.name)
    return names, modules


def _module_of(expr: ast.expr, modules: dict[str, str]) -> str | None:
    if isinstance(expr, ast.Name):
        return modules.get(expr.id)
    if isinstance(expr, ast.Attribute) and _module_of(expr.value, modules) == "":
        return expr.attr if expr.attr in MODULES else None
    return None


def _refs(node: ast.AST, names: dict[str, Def], modules: dict[str, str],
          reexports: dict[str, Def]) -> set[Def]:
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and n.id in names:
            out.add(names[n.id])
        elif isinstance(n, ast.Attribute):
            mod = _module_of(n.value, modules)
            if mod == "" and n.attr in reexports:
                out.add(reexports[n.attr])
            elif mod:
                out.add((mod, n.attr))
    return out


def _scan() -> tuple[list[Def], set[Def]]:
    """The package's top-level definitions, and every definition the program
    refers to outside the definition's own body."""
    init = PKG / "__init__.py"
    reexports, _ = _bindings(init, _parse(init), {})
    defined: list[Def] = []
    used: set[Def] = set()
    for path in PROGRAM:
        tree = _parse(path)
        names, modules = _bindings(path, tree, reexports)
        if path.parent == PKG and path.stem in MODULES:
            defined += [(path.stem, n) for n in _top_defs(tree)]
        for stmt in tree.body:
            refs = _refs(stmt, names, modules, reexports)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                refs.discard(names.get(stmt.name))
            used |= refs
    return defined, used


def _methods(tree: ast.Module) -> list[tuple[str, ast.FunctionDef]]:
    """The methods and properties of the module's classes, dunders left out,
    as (class name, definition)."""
    return [(cls.name, f) for cls in tree.body if isinstance(cls, ast.ClassDef)
            for f in cls.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (f.name.startswith("__") and f.name.endswith("__"))]


def _reads(node: ast.AST) -> collections.Counter:
    """How often each attribute name is read in ``node``."""
    return collections.Counter(n.attr for n in ast.walk(node)
                               if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def _dead_methods() -> list[str]:
    """``module.Class.name`` of each method or property that nothing in the
    program reads outside its own definition."""
    trees = {path: _parse(path) for path in PROGRAM}
    reads = sum((_reads(tree) for tree in trees.values()), collections.Counter())
    return [f"{path.stem}.{cls}.{f.name}" for path, tree in trees.items()
            if path.parent == PKG for cls, f in _methods(tree)
            if reads[f.name] == _reads(f)[f.name]]


def test_every_definition_is_used_by_the_program():
    defined, used = _scan()
    dead = [f"{mod}.{name}" for mod, name in defined
            if (mod, name) not in used and name not in ENTRY_POINTS]
    assert dead == [], f"defined in src/mulam but used by nothing in src/ or bench/: {dead}"


def test_every_method_is_used_by_the_program():
    dead = [name for name in _dead_methods() if name.split(".", 1)[1] not in ENTRY_POINTS]
    assert dead == [], f"methods read by nothing in src/ or bench/: {dead}"


def test_every_entry_point_is_defined():
    defined, _ = _scan()
    names = {name for _, name in defined}
    names |= {f"{cls}.{f.name}" for path in PKG.glob("*.py") for cls, f in _methods(_parse(path))}
    stale = [name for name in ENTRY_POINTS if name not in names]
    assert stale == [], f"allowlisted but defined nowhere in src/mulam: {stale}"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_every_test_module_uses_what_it_imports():
    unused = {path.name: names for path in TESTS if (names := _unused_imports(_parse(path)))}
    assert unused == {}, f"imported but never referred to: {unused}"


def test_an_unused_import_is_reported():
    tree = ast.parse("import os\nfrom mulam.syntax import RVar, mkbag as mk\nmk([RVar('x')])\n")
    assert _unused_imports(tree) == ["os (line 1)"]
