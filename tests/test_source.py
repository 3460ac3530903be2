"""Static checks on the package source that need no linter."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import qfsplit

MODULES = sorted(
    p for p in Path(qfsplit.__file__).parent.glob("*.py") if p.name != "__init__.py"
)

# the code that may use the package's public names; the tests do not count,
# since routes only the tests need belong in tests/oracles.py
REPO = Path(__file__).resolve().parents[1]
USERS = sorted(
    p for d in ("src/qfsplit", "scripts", "perfbench") for p in (REPO / d).glob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_detector():
    src = "import os\nfrom typing import Any, Optional\nx: Optional[int] = os.sep\n"
    assert unused_imports(src) == ["Any (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_private_defs(source: str) -> list[str]:
    """Top-level ``_private`` functions and classes that no code outside their
    own body reads."""
    tree = ast.parse(source)
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_") or node.name.startswith("__"):
            continue
        own = {id(n) for n in ast.walk(node)}
        if not any(
            isinstance(n, ast.Name) and n.id == node.name and id(n) not in own
            for n in ast.walk(tree)
        ):
            out.append(f"{node.name} (line {node.lineno})")
    return out


def test_unreferenced_private_detector():
    src = (
        "def _used(): return 1\n"
        "def _rec(n): return _rec(n - 1) if n else 0\n"
        "class _Gone: pass\n"
        "def public(): return _used()\n"
    )
    assert unreferenced_private_defs(src) == ["_rec (line 2)", "_Gone (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_definitions_are_used(path):
    assert unreferenced_private_defs(path.read_text()) == []


def _public_defs(body: list[ast.stmt]) -> list[ast.stmt]:
    return [
        n for n in body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not n.name.startswith("_")
    ]


def unreferenced_public_defs(sources: dict[str, str], modules: list[str]) -> list[str]:
    """Public definitions of the `modules` among `sources` (name -> source)
    that no code in `sources` reads outside their own body: top-level
    functions and classes, read by name or as an attribute, and the methods
    of those classes, read as an attribute.  A re-export by ``import`` is
    not a read."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    reads = [
        (id(n), n.attr if isinstance(n, ast.Attribute) else n.id, isinstance(n, ast.Attribute))
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute))
    ]

    def unread(node: ast.stmt, as_attribute: bool) -> bool:
        own = {id(n) for n in ast.walk(node)}
        return not any(
            read == node.name and i not in own and (attr or not as_attribute)
            for i, read, attr in reads
        )

    out = []
    for name in modules:
        for node in _public_defs(trees[name].body):
            if unread(node, as_attribute=False):
                out.append(f"{name}: {node.name} (line {node.lineno})")
            if isinstance(node, ast.ClassDef):
                for method in _public_defs(node.body):
                    if unread(method, as_attribute=True):
                        out.append(f"{name}: {node.name}.{method.name} (line {method.lineno})")
    return out


def test_unreferenced_public_detector():
    sources = {
        "m.py": (
            "def used(): return 1\n"
            "def rec(n): return rec(n - 1) if n else 0\n"
            "class Gone: pass\n"
            "def _private(): pass\n"
            "def by_attribute(): pass\n"
            "def exported(): pass\n"
        ),
        "user.py": "import m\nfrom m import exported\nm.by_attribute()\nused()\n",
    }
    assert unreferenced_public_defs(sources, ["m.py"]) == [
        "m.py: rec (line 2)", "m.py: Gone (line 3)", "m.py: exported (line 6)",
    ]


def test_unreferenced_public_method_detector():
    sources = {
        "m.py": (
            "class Box:\n"
            "    def read(self): return 1\n"
            "    def idle(self): return self.idle()\n"
            "    def _private(self): pass\n"
            "    @property\n"
            "    def size(self): return 0\n"
            "    def named(self): pass\n"
        ),
        "user.py": "from m import Box\nBox().read()\nBox().size\nnamed = 1\n",
    }
    assert unreferenced_public_defs(sources, ["m.py"]) == [
        "m.py: Box.idle (line 3)", "m.py: Box.named (line 7)",
    ]


def test_public_definitions_are_used():
    sources = {str(p.relative_to(REPO)): p.read_text() for p in USERS}
    modules = [n for n in sources if n.startswith("src/") and not n.endswith("__init__.py")]
    assert unreferenced_public_defs(sources, modules) == []


def _tracer_targets() -> dict:
    """`TARGETS` of perfbench/tracer.py: metric prefix -> (home module,
    attribute, budget argument position, value function)."""
    spec = importlib.util.spec_from_file_location("_tracer", REPO / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_tracer_targets_resolve():
    """The tracer patches each target by name, so a renamed or moved one
    would drop out of the per-layer metrics without an error."""
    missing = []
    for prefix, (home, attr, _, _) in _tracer_targets().items():
        obj = importlib.import_module(home)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{prefix}: {home}.{attr}")
    assert missing == []


def test_traced_budgets_are_readable():
    """The tracer reads a target's budget at its recorded argument position
    or from the ``budget`` keyword.  Where the signature puts the budget
    elsewhere, every call in the package must pass it by keyword, or the
    layer's step count would silently read nothing."""
    calls = [
        node
        for p in USERS
        if p.parts[-2] == "qfsplit"
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Call)
    ]
    wrong = []
    for prefix, (home, attr, pos, _) in _tracer_targets().items():
        if pos is None:
            continue
        fn = getattr(importlib.import_module(home), attr)
        at = list(inspect.signature(fn).parameters).index("budget")
        if at == pos:
            continue
        for call in calls:
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            if name == attr and len(call.args) > at:
                wrong.append(f"{prefix}: positional budget at line {call.lineno}")
    assert wrong == []


def reached_names(source: str, start: str) -> set[str]:
    """Every name that the top-level definition `start` reads, directly or
    through the other top-level definitions of the module that it reads."""
    tree = ast.parse(source)
    defs = {
        n.name: n
        for n in tree.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    seen: set[str] = set()
    todo = [start]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        if name in defs:
            for node in ast.walk(defs[name]):
                if isinstance(node, ast.Name):
                    todo.append(node.id)
                elif isinstance(node, ast.Attribute):
                    todo.append(node.attr)
    return seen


def test_reached_names_detector():
    src = (
        "def a(): return b(1).c\n"
        "def b(n): return _leaf\n"
        "class C:\n"
        "    def c(self): return d()\n"
        "def d(): return e()\n"
        "def e(): return 0\n"
    )
    assert reached_names(src, "a") == {"a", "b", "c", "_leaf"}
    assert reached_names(src, "C") == {"C", "d", "e"}


MODULE_ENGINE = {"module_buchberger", "module_normal_form", "FreeModuleVector"}


def test_keru_stays_off_the_module_engine():
    """F_*I ∩ Ker(u) is one Schreyer run on the u-images; the module engine
    serves only the colon ideal, so the intersection must not reach it."""
    source = (REPO / "src" / "qfsplit" / "groebner.py").read_text()
    assert reached_names(source, "frobenius_module_intersect_keru") & MODULE_ENGINE == set()
    assert reached_names(source, "colon_ideal") >= MODULE_ENGINE


def test_capped_delta_power_is_built_in_one_place():
    """The coefficient verifier and the stratum polynomials read their
    Δ-power E_n from the one capped recursion in `criteria`."""
    src = REPO / "src" / "qfsplit"
    criteria_source = (src / "criteria.py").read_text()
    assert "capped_delta_powers" in reached_names(criteria_source, "graded_cy_coefficient")
    strata_source = (src / "strata.py").read_text()
    assert "capped_delta_powers" in reached_names(strata_source, "strata_polynomials")


def packing_sites(source: str, codec: str = "") -> list[str]:
    """Exponent packing outside the class named `codec`: a bit shift by a
    computed amount, or a read of int's own shift methods.  Shifts by a
    constant (halving in binary powering, a mask's top bit) are not packing."""
    out = []

    def visit(node: ast.AST, scope: str) -> None:
        inside = bool(codec) and (scope == codec or scope.startswith(codec + "."))
        shifts = (ast.LShift, ast.RShift)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, shifts):
            amount = node.right if isinstance(node, ast.BinOp) else node.value
            if not isinstance(amount, ast.Constant) and not inside:
                out.append(f"shift by a computed amount in {scope or '<module>'} (line {node.lineno})")
        if isinstance(node, ast.Attribute) and node.attr in ("__lshift__", "__rshift__") and not inside:
            out.append(f"{node.attr} in {scope or '<module>'} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, scope)

    visit(ast.parse(source), "")
    return out


def test_packing_detector():
    src = (
        "class ExponentCodec:\n"
        "    def pack(self, e):\n"
        "        return sum(map(int.__lshift__, e, self.shifts))\n"
        "    def unpack(self, k):\n"
        "        return [(k >> s) & 3 for s in self.shifts]\n"
        "def power(n):\n"
        "    n >>= 1\n"
        "    return (n >> 1) + (1 << 4)\n"
        "def pack(e, w):\n"
        "    k = e[0] | (e[1] << w)\n"
        "    k <<= w\n"
        "    return list(map(int.__rshift__, e, e))\n"
    )
    assert packing_sites(src, "ExponentCodec") == [
        "shift by a computed amount in pack (line 10)",
        "shift by a computed amount in pack (line 11)",
        "__rshift__ in pack (line 12)",
    ]
    assert packing_sites(src)[:2] == [
        "__lshift__ in ExponentCodec.pack (line 3)",
        "shift by a computed amount in ExponentCodec.unpack (line 5)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_exponent_packing_lives_in_the_codec(path):
    """Δ₁, θ and capped products pack exponents only through
    `rings.ExponentCodec`, so the packed layout is defined in one place."""
    codec = "ExponentCodec" if path.name == "rings.py" else ""
    assert packing_sites(path.read_text(), codec) == []


def test_groebner_has_one_reduction_loop():
    """Ideal normal forms, Buchberger's reductions and the Schreyer run's
    cofactor-carrying reductions all divide through the one kernel
    `_reduce`; no caller picks leading terms by its own scan."""
    source = (REPO / "src" / "qfsplit" / "groebner.py").read_text()
    assert "max(work, key=grevlex_key)" not in source
    for caller in ("normal_form", "buchberger", "_syzygies"):
        assert "_reduce" in reached_names(source, caller), caller


def call_sites(source: str, name: str) -> list[str]:
    """The definitions, as dotted scopes, that hold a call of `name`, once
    per call."""
    out = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name:
            out.append(scope)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, scope)

    visit(ast.parse(source), "")
    return out


def test_call_sites_detector():
    src = (
        "def a(): return f(f(1))\n"
        "class C:\n"
        "    def m(self): return f(2) + self.f(3)\n"
        "def b(): return g(f)\n"
    )
    assert call_sites(src, "f") == ["a", "a", "C.m"]


def test_criteria_has_one_chain_loop():
    """The local engine, the I_∞ decision and `enclosure_closure` read the
    one I_n chain, `_Chain`: θ(F_*· ∩ Ker u) is formed only by its step and
    by the trap-ideal verifier, which none of the three reaches."""
    source = (REPO / "src" / "qfsplit" / "criteria.py").read_text()
    defined = {n.name for n in ast.parse(source).body if hasattr(n, "name")}
    assert defined & {"_theta_closure", "_theta_step"} == set()
    assert sorted(call_sites(source, "_theta_images")) == [
        "_Chain.advance", "verify_infinity_certificate",
    ]
    for caller in ("height_local", "qfs_decide", "enclosure_closure"):
        reached = reached_names(source, caller)
        assert "_Chain" in reached, caller
        assert "verify_infinity_certificate" not in reached, caller
