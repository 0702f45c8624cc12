"""No knob that nothing sets: every defaulted parameter of a module-level
function or of a class ``__init__`` in ``src/mvcrop`` is passed, by keyword
or by position, by some package call to that name. A parameter that no
package call passes has one value in use and belongs in a constant.

Calls are matched by name: ``f(...)``, ``module.f(...)`` and ``obj.f(...)``
all count as calls to ``f``; a call to a class counts for the nearest
``__init__`` along its package bases, and ``super().__init__(...)`` counts
as a call to the enclosing class's first base. A ``*args`` or ``**kwargs``
argument counts as passing every position or keyword."""
import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_PACKAGE = sorted((_ROOT / "src" / "mvcrop").glob("*.py"))

# Defaulted parameters that only callers outside the package set.
_ALLOWED = {
    ("cli.main", "argv"): "console entry point; the tests pass an argv list",
    ("tensor.grad_check", "step"): "test harness; the tests tune the probe",
    ("tensor.grad_check", "tol"): "test harness; the tests tune the probe",
}


def _defaulted(args: ast.arguments, skip: int) -> list[tuple[str, int | None]]:
    """``(name, position)`` of each defaulted parameter; keyword-only
    parameters have no position. ``skip`` drops a leading ``self``."""
    positional = (args.posonlyargs + args.args)[skip:]
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _callee(call: ast.Call, enclosing_class: ast.ClassDef | None) -> str | None:
    func = call.func
    if (isinstance(func, ast.Attribute) and func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"):
        bases = enclosing_class.bases if enclosing_class else []
        return bases[0].id if bases and isinstance(bases[0], ast.Name) else None
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class _Calls(ast.NodeVisitor):
    """Per callee name: the largest positional count and the keywords of
    every call, with ``None`` standing for "all"."""

    def __init__(self) -> None:
        self.positions: dict[str, float] = {}
        self.keywords: dict[str, set] = {}
        self._classes: list[ast.ClassDef] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._classes.append(node)
        self.generic_visit(node)
        self._classes.pop()

    def visit_Call(self, node: ast.Call) -> None:
        name = _callee(node, self._classes[-1] if self._classes else None)
        if name is not None:
            count = (float("inf") if any(isinstance(a, ast.Starred) for a in node.args)
                     else len(node.args))
            self.positions[name] = max(self.positions.get(name, 0), count)
            self.keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
        self.generic_visit(node)


def unpassed(sources: dict[str, str]) -> dict[str, list[str]]:
    """``{"module.name": [parameter, ...]}`` for every defaulted parameter
    that no call in ``sources`` (module name -> source text) passes."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    calls = _Calls()
    for tree in trees.values():
        calls.visit(tree)
    inits: dict[str, ast.FunctionDef | None] = {}
    bases: dict[str, list[str]] = {}
    definitions = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                definitions.append((f"{module}.{node.name}", node.name,
                                    _defaulted(node.args, 0)))
            elif isinstance(node, ast.ClassDef):
                init = next((item for item in node.body
                             if isinstance(item, ast.FunctionDef)
                             and item.name == "__init__"), None)
                inits[node.name] = init
                bases[node.name] = [b.id for b in node.bases if isinstance(b, ast.Name)]
                if init is not None:
                    definitions.append((f"{module}.{node.name}", node.name,
                                        _defaulted(init.args, 1)))

    def owner(cls: str) -> str | None:
        """The class whose ``__init__`` a call to ``cls`` runs."""
        if inits.get(cls) is not None:
            return cls
        for base in bases.get(cls, []):
            found = owner(base)
            if found is not None:
                return found
        return None

    # a call to a class without an __init__ of its own reaches its owner's
    callers: dict[str, list[str]] = {}
    for cls in inits:
        target = owner(cls)
        if target is not None:
            callers.setdefault(target, []).append(cls)
    out: dict[str, list[str]] = {}
    for qualified, name, params in definitions:
        names = callers.get(name, [name]) if name in inits else [name]
        keywords = set().union(*(calls.keywords.get(n, set()) for n in names))
        positions = max((calls.positions.get(n, 0) for n in names), default=0)
        missing = [param for param, position in params
                   if param not in keywords and None not in keywords
                   and (position is None or position >= positions)
                   and (qualified, param) not in _ALLOWED]
        if missing:
            out[qualified] = missing
    return out


def test_every_default_is_passed_by_the_package():
    sources = {path.stem: path.read_text() for path in _PACKAGE}
    assert unpassed(sources) == {}


def test_allowlist_names_live_parameters():
    sources = {path.stem: path.read_text() for path in _PACKAGE}
    trees = {module: ast.parse(text) for module, text in sources.items()}
    for qualified, param in _ALLOWED:
        module, name = qualified.split(".")
        func = next(node for node in trees[module].body
                    if isinstance(node, ast.FunctionDef) and node.name == name)
        assert param in [a for a, _ in _defaulted(func.args, 0)], qualified


def test_unpassed_defaults_are_found():
    source = (
        "class Base:\n"
        "    def __init__(self, a, b=1, c=2):\n"
        "        pass\n"
        "class Child(Base):\n"
        "    def __init__(self, a, d=3):\n"
        "        super().__init__(a, 5)\n"
        "class Plain(Base):\n"
        "    pass\n"
        "def f(x, y=0, *, z=1, w=2):\n"
        "    return Plain(x, c=4)\n"
        "def g(x=0, y=1):\n"
        "    return f(1, 2, z=3), g(*x)\n"
        "def h(x=0):\n"
        "    return h(**{})\n"
    )
    assert unpassed({"m": source}) == {"m.Child": ["d"], "m.f": ["w"]}
