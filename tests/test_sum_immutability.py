"""Nothing writes a sum's items after its constructor.

``Sum.zero`` returns one shared zero per semiring, so one write to the
``items`` of a sum would change every zero sum at once.  Only ``Sum``'s own
constructors, ``__init__`` and ``of_canonical``, may set the attribute.
"""

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "src" / "mulam"
ALLOWED = {("Sum", "__init__"), ("Sum", "of_canonical")}


def _targets(node: ast.AST):
    """The attribute nodes that ``node`` writes or deletes, through tuple
    and starred targets."""
    if isinstance(node, ast.Assign):
        stack = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        stack = [node.target]
    elif isinstance(node, ast.Delete):
        stack = list(node.targets)
    else:
        return
    while stack:
        t = stack.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            stack.extend(t.elts)
        elif isinstance(t, ast.Starred):
            stack.append(t.value)
        elif isinstance(t, ast.Attribute):
            yield t


def _sets_items_by_name(node: ast.AST) -> bool:
    """``setattr(x, "items", v)`` or ``object.__setattr__(x, "items", v)``."""
    if not isinstance(node, ast.Call) or len(node.args) < 2:
        return False
    f = node.func
    named = (isinstance(f, ast.Name) and f.id in ("setattr", "delattr")) or (
        isinstance(f, ast.Attribute) and f.attr in ("__setattr__", "__delattr__"))
    arg = node.args[1]
    return named and isinstance(arg, ast.Constant) and arg.value == "items"


def writes_to_items(tree: ast.Module) -> list[str]:
    """Each write to an attribute ``items`` outside the allowed
    constructors, as ``class.function:line`` (``-`` at module level)."""
    found = []

    def visit(node: ast.AST, cls: str, fn: str) -> None:
        for kid in ast.iter_child_nodes(node):
            if isinstance(kid, ast.ClassDef):
                visit(kid, kid.name, "-")
                continue
            if isinstance(kid, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A nested function is not the constructor it sits in.
                visit(kid, cls, kid.name if fn == "-" else f"{fn}.{kid.name}")
                continue
            hit = any(t.attr == "items" for t in _targets(kid)) or _sets_items_by_name(kid)
            if hit and (cls, fn) not in ALLOWED:
                found.append(f"{cls}.{fn}:{kid.lineno}")
            visit(kid, cls, fn)

    visit(tree, "-", "-")
    return found


def test_only_the_sum_constructors_write_items():
    found = {path.name: hits for path in sorted(PKG.glob("*.py"))
             if (hits := writes_to_items(ast.parse(path.read_text(encoding="utf-8"))))}
    assert found == {}, found


def test_a_write_to_items_is_reported():
    tree = ast.parse(
        "class Sum:\n"
        "    def __init__(self, items):\n"
        "        self.items = items\n"
        "    def of_canonical(cls, items):\n"
        "        out.items = items\n"
        "    def add(self, other):\n"
        "        self.items += other.items\n"
        "def grow(s):\n"
        "    s.semiring, s.items = 'nat', ()\n"
        "    setattr(s, 'items', ())\n"
        "    object.__setattr__(s, 'items', ())\n"
        "    del s.items\n"
        "class SumBuilder:\n"
        "    def __init__(self, s):\n"
        "        s.items = ()\n"
    )
    assert writes_to_items(tree) == ["Sum.add:7", "-.grow:9", "-.grow:10", "-.grow:11",
                                     "-.grow:12", "SumBuilder.__init__:15"]
