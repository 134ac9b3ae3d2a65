"""No test-only API: every function, class and method that ``src/wpec``
defines is used by the package itself, by the benchmark harness or by
the acceptance tests.

A use is a name, an attribute, or a dotted-name string (``getattr`` and
wrapper tables reach names by string) anywhere in those files, except
the definition itself and the strings of an ``__all__`` list.  Dunder
names are left out: the language calls them.

An attribute read counts for one class (and the classes it inherits
from or that inherit from it) where the AST shows the receiver's class:
``self`` (a method's first parameter), a class by name, a call of a
class, a parameter annotated with a class, a field annotated with one,
an element of a field annotated ``tuple[C, ...]`` or ``list[C]``, and a
local bound only to one such class.  Any other receiver counts for
every class, so a method whose name some other object's attribute also
spells passes.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "wpec").glob("*.py"))
USERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py"
]

# name -> why it stays although nothing listed above uses it yet
ALLOWED = {
    "format_schedule": "the schedule text form that check-protocol's "
    "failure dumps will write (ROADMAP item 2c)",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_CONTAINERS = {"tuple", "list", "Sequence", "Iterable", "Iterator"}
_BY_NAME = {"getattr", "hasattr", "setattr", "delattr"}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _defined(paths=PACKAGE) -> dict[tuple[str | None, str], str]:
    """Every function, class and method of the package, as (class or None,
    name), with the module that defines it."""
    out: dict[tuple[str | None, str], str] = {}
    for path in paths:
        tree = ast.parse(path.read_text())
        owner = {id(d): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for d in c.body}
        for d in ast.walk(tree):
            if isinstance(d, (*_FUNCS[:2], ast.ClassDef)) and not _is_dunder(d.name):
                out.setdefault((owner.get(id(d)), d.name), path.stem)
    return out


def _all_strings(tree: ast.AST) -> set[int]:
    """ids of the string nodes inside ``__all__ = [...]``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            out.update(id(c) for c in ast.walk(node.value))
    return out


class _Classes:
    """The classes of the package: their bases and annotated fields."""

    def __init__(self, paths=PACKAGE) -> None:
        self.bases: dict[str, set[str]] = {}
        self.fields: dict[tuple[str, str], ast.expr] = {}
        for path in paths:
            for c in ast.walk(ast.parse(path.read_text())):
                if isinstance(c, ast.ClassDef):
                    self.bases[c.name] = {b.id for b in c.bases if isinstance(b, ast.Name)}
                    for f in c.body:
                        if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name):
                            self.fields[c.name, f.target.id] = f.annotation

    def family(self, cls: str) -> set[str]:
        """cls, the package classes it inherits from, and those inheriting
        from it: a read through one may reach a method of any."""
        out, todo = set(), [cls]
        while todo:
            c = todo.pop()
            if c not in out:
                out.add(c)
                todo += self.bases.get(c, set()) & self.bases.keys()
                todo += [d for d, bases in self.bases.items() if c in bases]
        return out

    def named(self, node) -> str | None:
        """The class an annotation or callee names, if any."""
        if isinstance(node, ast.Name):
            node = node.id
        elif isinstance(node, ast.Constant):
            node = node.value
        return node if isinstance(node, str) and node in self.bases else None

    def type_of(self, expr, env) -> str | None:
        if isinstance(expr, ast.Name):
            return env.get(expr.id, self.named(expr))
        if isinstance(expr, ast.Call):
            return self.named(expr.func)
        if isinstance(expr, ast.Attribute):
            return self.named(self.fields.get((self.type_of(expr.value, env), expr.attr)))
        return None

    def element_of(self, expr, env) -> str | None:
        """The class of the items of a field annotated tuple[C, ...] or list[C]."""
        ann = self.fields.get((self.type_of(expr.value, env), expr.attr)) if isinstance(
            expr, ast.Attribute) else None
        if isinstance(ann, ast.Subscript) and getattr(ann.value, "id", "") in _CONTAINERS:
            item = ann.slice.elts[0] if isinstance(ann.slice, ast.Tuple) else ann.slice
            return self.named(item)
        return None


def _own_nodes(scope):
    """A scope's nodes, down to but not into nested functions and classes."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (*_FUNCS, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def _bindings(scope, nodes, classes: _Classes, env, owner):
    """Yield (name, class or None) for each binding of a name in a scope
    whose own nodes are ``nodes``."""
    if isinstance(scope, _FUNCS):
        a = scope.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        static = any(getattr(d, "id", "") == "staticmethod"
                     for d in getattr(scope, "decorator_list", ()))
        for i, p in enumerate(params):
            yield p.arg, owner if i == 0 and owner and not static else classes.named(p.annotation)
    typed = set()
    for node in nodes:
        if isinstance(node, (ast.For, ast.comprehension)):
            target, items = node.target, node.iter
            if (isinstance(items, ast.Call) and getattr(items.func, "id", "") == "enumerate"
                    and isinstance(target, ast.Tuple) and len(target.elts) == 2):
                target, items = target.elts[1], items.args[0]
            if isinstance(target, ast.Name):
                typed.add(target)
                yield target.id, classes.element_of(items, env)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(target, ast.Name):
                    typed.add(target)
                    yield target.id, classes.type_of(node.value, env)
        elif isinstance(node, (*_FUNCS[:2], ast.ClassDef)):
            yield node.name, None
        elif isinstance(node, ast.alias):
            yield (node.asname or node.name).split(".")[0], None
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node not in typed:
            yield node.id, None


def _scope_env(scope, nodes, classes: _Classes, outer, owner) -> dict[str, str | None]:
    """Names -> their class in a scope: a name has one where every binding
    of it gives the same class (types of locals follow from each other,
    so this settles in a few rounds)."""
    env = dict(outer)
    for _ in range(4):
        seen: dict[str, set] = {}
        for name, cls in _bindings(scope, nodes, classes, env, owner):
            seen.setdefault(name, set()).add(cls)
        new = dict(outer)
        new.update({n: c.pop() if len(c) == 1 else None for n, c in seen.items()})
        if new == env:
            break
        env = new
    return env


def _reads(scope, classes: _Classes, outer=None, owner=None, out=None):
    """(typed, untyped) attribute reads under a scope: (class, name) where
    the AST shows the receiver's class, the bare name where it does not."""
    typed, untyped = out if out is not None else (set(), set())
    nodes = list(_own_nodes(scope))
    env = _scope_env(scope, nodes, classes, outer or {}, owner)
    for node in nodes:
        if isinstance(node, (*_FUNCS, ast.ClassDef)):
            inner = node.name if isinstance(node, ast.ClassDef) else None
            # a method's owner is the class whose body holds it
            method_of = owner if isinstance(scope, ast.ClassDef) else None
            _reads(node, classes, env, inner or method_of, (typed, untyped))
        elif isinstance(node, ast.Attribute):
            cls = classes.type_of(node.value, env)
            if cls is None:
                untyped.add(node.attr)
            else:
                typed.add((cls, node.attr))
    return typed, untyped


def _used(paths=USERS, classes=None):
    """The uses in ``paths``: bare names, attribute names and dotted-string
    parts that any definition of that name may take, and (class, name)
    attribute reads through a receiver of a known class."""
    classes = classes or _Classes()
    names: set[str] = set()
    attrs: set[str] = set()
    typed: set[tuple[str, str]] = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        skip = _all_strings(tree)
        # one word is an attribute name as the second argument of getattr
        by_name = {id(n.args[1]) for n in ast.walk(tree) if isinstance(n, ast.Call)
                   and getattr(n.func, "id", "") in _BY_NAME and len(n.args) > 1}
        _reads(tree, classes, out=(typed, attrs))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in skip
                and _DOTTED.fullmatch(node.value)
            ):
                words = node.value.split(".")
                (attrs if len(words) > 1 or id(node) in by_name else names).update(words)
    typed = {(c, n) for cls, n in typed for c in classes.family(cls)}
    return names, attrs, typed


def _unused(paths=USERS, package=PACKAGE) -> list[str]:
    """Definitions in ``package`` that nothing in ``paths`` uses: a method
    is reached by an attribute or a string, never by a bare name."""
    names, attrs, typed = _used(paths, _Classes(package))
    return sorted(
        ".".join(filter(None, (module, cls, name)))
        for (cls, name), module in _defined(package).items()
        if name not in attrs and (cls, name) not in typed and name not in ALLOWED
        and (cls is not None or name not in names)
    )


def test_every_definition_is_used_outside_the_unit_tests():
    assert _unused() == [], "defined but used only by unit tests (or not at all)"
    # an allow-list entry goes once its name is used or deleted
    names, attrs, _ = _used()
    assert all((None, name) in _defined() and name not in names | attrs
               for name in ALLOWED)


def test_a_read_through_another_class_does_not_count(tmp_path):
    # OutcomeBundle.s, a property that only a unit test once read: `s` is
    # also a Claim2Violation field, read as `v.s` over a Claim2Report's
    # violations, and a local and a dict key elsewhere; none of these
    # reads an OutcomeBundle
    src = ROOT / "src" / "wpec" / "protocol.py"
    anchor = "    @property\n    def stilde(self) -> int:\n"
    prop = "    @property\n    def s(self) -> int:\n        return self.s_x\n\n"
    assert anchor in src.read_text()
    copy = tmp_path / src.name
    copy.write_text(src.read_text().replace(anchor, prop + anchor))
    package = [copy if p == src else p for p in PACKAGE]
    users = [copy if p == src else p for p in USERS]
    assert _unused(users, package) == ["protocol.OutcomeBundle.s"]
