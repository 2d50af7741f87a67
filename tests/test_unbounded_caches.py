"""A ratchet on unbounded process-wide caches in ``src/logtoric``.

Every ``lru_cache(maxsize=None)`` (or ``cache``) on a module-level
function or method, and every module-global dict that starts empty, keeps
what it holds for the life of the process.  The allowlist is the set that
exists today; a new one fails this test, and removing one means removing
it from the list too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "logtoric"

ALLOWED = {
    "chow._PRESENTATIONS",
}


def _name(node):
    """``lru_cache`` for ``lru_cache`` and ``functools.lru_cache``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _unbounded_decorator(dec) -> bool:
    """``@cache``, or ``@lru_cache`` with ``maxsize=None``."""
    if _name(dec) == "cache":
        return True
    if not (isinstance(dec, ast.Call) and _name(dec.func) == "lru_cache"):
        return False
    size = [k.value for k in dec.keywords if k.arg == "maxsize"] + dec.args[:1]
    return bool(size) and isinstance(size[0], ast.Constant) and size[0].value is None


def _empty_dict(value) -> bool:
    """``{}``, ``dict()``, ``defaultdict(...)`` or ``OrderedDict()``."""
    if isinstance(value, ast.Dict):
        return not value.keys
    if not isinstance(value, ast.Call) or value.keywords:
        return False
    name = _name(value.func)
    return name == "defaultdict" or (name in ("dict", "OrderedDict") and not value.args)


def _unbounded_caches(module: str, tree: ast.Module):
    """Qualified names of the unbounded caches of one module: decorated
    functions at module or class level (functions nested in functions are
    per call) and module-level assignments of an empty dict."""
    out = set()

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_unbounded_decorator(d) for d in node.decorator_list):
                    out.add(f"{prefix}{node.name}")
            elif not prefix and isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if node.value is not None and _empty_dict(node.value):
                    out.update(t.id for t in targets if isinstance(t, ast.Name))

    visit(tree.body, "")
    return {f"{module}.{name}" for name in out}


def _all_unbounded_caches():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _unbounded_caches(path.stem, ast.parse(path.read_text(), str(path)))
    return found


def test_no_new_unbounded_cache():
    found = _all_unbounded_caches()
    assert found - ALLOWED == set(), "new unbounded cache; bound it or hold it per build"
    assert ALLOWED - found == set(), "cache gone: remove it from the allowlist"


def test_the_scan_sees_each_kind_of_cache():
    tree = ast.parse(
        "from functools import cache, lru_cache\n"
        "import functools\n"
        "_A: dict = {}\n"
        "_B = dict()\n"
        "_KEEP = {'x': 1}\n"
        "@lru_cache(maxsize=None)\n"
        "def f(x): return x\n"
        "@functools.lru_cache(None)\n"
        "def g(x): return x\n"
        "@cache\n"
        "def h(x): return x\n"
        "@lru_cache(maxsize=64)\n"
        "def bounded(x): return x\n"
        "class K:\n"
        "    @functools.cache\n"
        "    def m(self): return 1\n"
        "def outer():\n"
        "    @cache\n"
        "    def local(x): return x\n"
        "    return local\n"
    )
    assert _unbounded_caches("mod", tree) == {
        "mod._A", "mod._B", "mod.f", "mod.g", "mod.h", "mod.K.m",
    }
