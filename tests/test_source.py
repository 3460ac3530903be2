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


@pytest.mark.parametrize(
    "path",
    sorted(Path(qfsplit.__file__).parent.glob("*.py")) + sorted((REPO / "scripts").glob("*.py")),
    ids=lambda p: p.name,
)
def test_no_assert_statements(path):
    """`python -O` strips assert statements, so a check the package or a
    script relies on must be an explicit raise or exit."""
    tree = ast.parse(path.read_text())
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)] == []


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
    """The coefficient verifier (from level 3 on) and the stratum polynomials
    read the target coefficient of gp·E_n through the one capped reader,
    `criteria.capped_coefficients`, which alone builds the Δ-power E_n."""
    src = REPO / "src" / "qfsplit"
    criteria_source = (src / "criteria.py").read_text()
    assert "capped_coefficients" in reached_names(criteria_source, "graded_cy_coefficient")
    strata_source = (src / "strata.py").read_text()
    assert "capped_coefficients" in reached_names(strata_source, "strata_polynomials")
    assert call_sites(strata_source, "capped_mul", method=True) == []


def codec_reads(source: str) -> list[str]:
    """Where `ExponentCodec` is read as a value, by scope: a call, or a
    codec made some other way (``lru_cache(...)(ExponentCodec)``).
    Annotations are not reads."""
    out = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, ast.Name) and node.id == "ExponentCodec":
            out.append(scope or "<module>")
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, f"{scope}.{child.name}" if scope else child.name)
                elif isinstance(child, ast.AST):
                    visit(child, scope)

    visit(ast.parse(source), "")
    return out


def test_codec_reads_detector():
    src = (
        "from functools import lru_cache\n"
        "_codec = lru_cache(maxsize=8)(ExponentCodec)\n"
        "def f(codec: ExponentCodec) -> ExponentCodec:\n"
        "    return ExponentCodec(3, 5)\n"
    )
    assert codec_reads(src) == ["<module>", "f"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_narrow_codecs_come_from_one_rule(path):
    """Codecs are made only in `rings`: the ring layout by `ring_codec` and
    every narrow one by `narrow_codec`, the one width rule (the largest
    exponent's bit length plus a guard bit)."""
    reads = codec_reads(path.read_text())
    assert reads == (["ring_codec", "narrow_codec"] if path.name == "rings.py" else [])


def nested_loops(node: ast.AST) -> list[int]:
    """The lines of the loops (statements or comprehension clauses) that
    run inside another loop of `node`: a loop over term pairs is one."""
    out = []

    def visit(node: ast.AST, depth: int) -> None:
        loops = 0
        if isinstance(node, (ast.For, ast.While)):
            loops = 1
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            loops = len(node.generators)
        if loops and depth + loops >= 2:
            out.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, depth + loops)

    visit(node, 0)
    return out


def test_nested_loops_detector():
    src = (
        "def pairs(a, b):\n"
        "    out = {}\n"
        "    for x in a:\n"
        "        for y in b:\n"
        "            out[x + y] = 1\n"
        "    return [x + y for x in a for y in b], {x: 1 for x in a}\n"
    )
    assert nested_loops(ast.parse(src)) == [4, 6]


def test_polynomial_products_run_the_packed_kernel():
    """`Polynomial`'s product methods pack their operands, call the one
    product kernel (`packed_mul`, or `packed_power` over it) and unpack:
    none has a loop over term pairs of its own."""
    source = (REPO / "src" / "qfsplit" / "rings.py").read_text()
    cls = next(n for n in ast.parse(source).body if getattr(n, "name", "") == "Polynomial")
    methods = {m.name: m for m in cls.body if isinstance(m, ast.FunctionDef)}
    for name in ("__mul__", "__pow__", "mul_term", "capped_mul"):
        assert nested_loops(methods[name]) == [], name
    for name in ("__mul__", "capped_mul"):
        assert "packed_mul" in reached_through(source, name, "Polynomial"), name
    assert "packed_power" in reached_through(source, "__pow__", "Polynomial")
    # a term is a polynomial of one term, multiplied by __mul__
    mul_term = ast.walk(methods["mul_term"])
    assert any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult) for n in mul_term)
    assert reached_names(source, "packed_power") >= {"packed_mul"}


def reached_through(source: str, start: str, cls: str) -> set[str]:
    """Every name that the top-level function `start` reads, directly or
    through the module's other top-level definitions and the methods of the
    class `cls`: a method is reached where its name is read as an attribute,
    and reading `cls` by name reaches only its ``__init__``.  Annotations
    are not reads."""
    tree = ast.parse(source)
    defs = {}
    for n in tree.body:
        if isinstance(n, ast.ClassDef) and n.name == cls:
            for m in n.body:
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs[m.name] = m
            defs[cls] = defs.get("__init__")
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.setdefault(n.name, n)
    seen: set[str] = set()
    todo = [start]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        stack = [defs[name]] if defs.get(name) is not None else []
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Name):
                todo.append(node.id)
            elif isinstance(node, ast.Attribute):
                todo.append(node.attr)
            for field, value in ast.iter_fields(node):
                if field in ("annotation", "returns"):
                    continue
                for child in value if isinstance(value, list) else [value]:
                    if isinstance(child, ast.AST):
                        stack.append(child)
    return seen


def test_reached_through_detector():
    src = (
        "class S:\n"
        "    def __init__(self): self.a = 1\n"
        "    def near(self): return far()\n"
        "    def heavy(self): return costly()\n"
        "def far(): return 0\n"
        "def costly(): return 1\n"
        "def light(s: S) -> S: return s.near()\n"
        "def full(): return S().heavy()\n"
    )
    assert reached_through(src, "light", "S") == {"light", "s", "near", "far"}
    assert {"S", "a", "heavy", "costly"} <= reached_through(src, "full", "S")


def test_graded_engine_never_forms_delta1_of_f_to_the_p_minus_one():
    """The graded engine multiplies by Δ₁(f) and pairs with f^{p−2}, so
    neither the splitting's Δ₁(f^{p−1}) nor the δ-ring rule that forms it
    is on its path; the coefficient verifier forms Δ₁(f^{p−1}) from level 3
    on."""
    source = (REPO / "src" / "qfsplit" / "criteria.py").read_text()
    delta = {"packed_delta", "delta1_power"}
    assert reached_through(source, "_graded_cy", "_Splitting") & delta == set()
    assert "twist" in reached_through(source, "_graded_cy", "_Splitting")
    assert reached_through(source, "graded_cy_coefficient", "_Splitting") >= delta


def test_level_two_verifier_never_forms_delta1_of_f_to_the_p_minus_one():
    """At level 2 the coefficient verifier reads each coefficient of
    Δ₁(f^{p−1}) that its pairing needs from Δ₁(f) and the δ-ring rule's
    parts: it forms no Δ₁(f^{p−1}), and it stays off the solver's twist
    route (the residue table of −Δ₁(f) and packed θ)."""
    source = (REPO / "src" / "qfsplit" / "criteria.py").read_text()
    reached = reached_through(source, "_delta_pairing", "_Splitting")
    avoided = {"packed_delta", "delta1_power", "twist", "_twist_table", "residue_table", "packed_theta"}
    assert reached & avoided == set()
    assert {"check_delta", "delta1_power_parts", "packed_delta1", "packed_fp1"} <= reached
    assert "_delta_pairing" in reached_through(source, "graded_cy_coefficient", "_Splitting")


def test_the_chain_and_its_verifiers_never_form_delta1_of_f_to_the_p_minus_one():
    """The I_n chain, the strict-chain search, the chain and trap-ideal
    verifiers and `product_witness`'s joint chain apply θ only on Ker u,
    through Δ₁(f) (`_Splitting.chain_theta`): none of them reaches the
    splitting's Δ₁(f^{p−1}) or the δ-ring rule that forms it, and
    `product_witness` reaches neither the polynomial θ nor the ghost-route
    Δ₁.  The coefficient verifier still forms Δ₁(f^{p−1}), from level 3 on."""
    source = (REPO / "src" / "qfsplit" / "criteria.py").read_text()
    delta = {"packed_delta", "delta1_power"}
    starts = ("_Chain", "_strict_chain_search", "_verify_levels", "verify_infinity_certificate")
    for start in starts + ("product_witness",):
        reached = reached_through(source, start, "_Splitting")
        assert reached & delta == set(), start
        assert {"chain_theta", "packed_delta1", "fp2"} <= reached, start
    reached = reached_through(source, "product_witness", "_Splitting")
    assert reached & {"delta", "theta", "delta1"} == set()
    assert reached_through(source, "graded_cy_coefficient", "_Splitting") >= delta


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


def call_sites(source: str, name: str, method: bool = False) -> list[str]:
    """The definitions, as dotted scopes, that hold a call of `name` (with
    `method`, a method call `x.name(...)`), once per call."""
    out = []
    field = "attr" if method else "id"

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, ast.Call) and getattr(node.func, field, None) == name:
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
    assert call_sites(src, "f", method=True) == ["C.m"]


def test_criteria_has_one_chain_loop():
    """The local engine, the I_∞ decision and `enclosure_closure` read the
    one I_n chain, `_Chain`, which steps by one method, `_Chain.advance`:
    it alone reads the Ker u stream, and θ(F_*· ∩ Ker u) is formed only by
    it and by the trap-ideal verifier, which none of the three reaches (the
    strict-chain search, the chain checker and `product_witness` apply θ
    to single elements).
    One reader, `_read_chain`, serves `height_local`, `qfs_decide` and
    `height`; only `enclosure_closure` closes the chain past a level that
    escapes."""
    source = (REPO / "src" / "qfsplit" / "criteria.py").read_text()
    tree = ast.parse(source)
    defined = {n.name for n in tree.body if hasattr(n, "name")}
    assert defined & {"_theta_closure", "_theta_step", "_theta_images"} == set()
    assert defined & {"_height_local", "_qfs_decide", "_i_infinity"} == set()
    assert "FIXED_POINT_ENCLOSURE" not in source and "FixedPointEnclosure" not in source
    chain = next(n for n in tree.body if getattr(n, "name", None) == "_Chain")
    methods = {n.name for n in chain.body if isinstance(n, ast.FunctionDef)}
    assert methods == {"__init__", "_reduced", "advance", "close", "levels"}
    assert call_sites(source, "_intersect_keru") == ["_Chain.advance"]
    assert sorted(call_sites(source, "chain_theta", method=True)) == [
        "_Chain.advance", "_strict_chain_search", "_verify_levels", "product_witness",
        "verify_infinity_certificate",
    ]
    for caller in ("height_local", "qfs_decide", "enclosure_closure"):
        reached = reached_names(source, caller)
        assert "_Chain" in reached, caller
        assert "verify_infinity_certificate" not in reached, caller
    for caller in ("height_local", "qfs_decide", "height"):
        assert "_read_chain" in reached_names(source, caller), caller
    assert call_sites(source, "close", method=True) == ["enclosure_closure"]


def test_both_chain_witness_shapes_have_one_checker():
    """A strict θ-chain is a levelled certificate with one record per level,
    so `_verify_levels` is the one chain check: both verifiers hand their
    records to it, it alone of them tests membership (a one-term multiple,
    `_term_multiple`, else reduction) and m^{[p]} (`_Splitting.escapes`),
    and `verify_witness_chain` repacks the chain with no loop of its own."""
    source = (REPO / "src" / "qfsplit" / "criteria.py").read_text()
    defs = {n.name: n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef)}
    assert "_step_fault" not in defs
    assert call_sites(source, "_term_multiple") == ["_verify_levels"]
    assert sorted(call_sites(source, "_verify_levels")) == [
        "verify_witness_chain", "verify_witness_levels",
    ]
    assert sorted(call_sites(source, "_contains", method=True)) == [
        "_verify_levels", "verify_infinity_certificate",
    ]
    for name in ("verify_witness_chain", "verify_witness_levels"):
        read = {
            n.attr if isinstance(n, ast.Attribute) else n.id
            for n in ast.walk(defs[name])
            if isinstance(n, (ast.Name, ast.Attribute))
        }
        checks = {"packed_u", "chain_theta", "escapes", "in_max_ideal_frobenius_power", "_contains"}
        assert read & checks == set(), name
    chain = defs["verify_witness_chain"]
    assert not any(isinstance(n, (ast.For, ast.While)) for n in ast.walk(chain))


def test_theta_has_one_packed_form():
    """`frobenius.packed_theta` is the one θ of the package: only the public
    `theta`, the graded twist and the chain's θ call it, and `criteria` does
    not import the polynomial `theta`."""
    sites = sorted(
        f"{path.stem}.{scope}"
        for path in MODULES
        for method in (False, True)
        for scope in call_sites(path.read_text(), "packed_theta", method=method)
    )
    assert sites == [
        "criteria._Splitting.chain_theta", "criteria._Splitting.twist", "frobenius.theta",
    ]
    tree = ast.parse((REPO / "src" / "qfsplit" / "criteria.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "theta" not in imported


def except_handlers(source: str, name: str) -> list[str]:
    """The top-level definitions (`<module>` for other statements) that hold
    an `except name` handler, once per handler; a tuple of exceptions counts
    when it names `name`, bare or as an attribute."""
    out = []
    for node in ast.parse(source).body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.ExceptHandler) and sub.type is not None:
                types = sub.type.elts if isinstance(sub.type, ast.Tuple) else [sub.type]
                if any(getattr(t, "id", getattr(t, "attr", None)) == name for t in types):
                    out.append(getattr(node, "name", "<module>"))
    return out


def test_except_handlers_detector():
    src = (
        "def a():\n"
        "    try: pass\n"
        "    except (E, F): pass\n"
        "    except G: pass\n"
        "def b():\n"
        "    try: pass\n"
        "    except m.E: pass\n"
        "try: pass\n"
        "except E: pass\n"
    )
    assert except_handlers(src, "E") == ["a", "b", "<module>"]
    assert except_handlers(src, "G") == ["a"]


def test_every_height_route_has_one_result_path():
    """A budget abort becomes Unknown in one place: criteria catches
    BudgetExceededError only in `_route_result`, the result path both
    engines return through, so `height_graded_cy` answers Unknown as
    `height` and `height_local` do; `height` keeps no graded closure."""
    source = (REPO / "src" / "qfsplit" / "criteria.py").read_text()
    assert except_handlers(source, "BudgetExceededError") == ["_route_result"]
    defined = {n.name for n in ast.parse(source).body if hasattr(n, "name")}
    assert "_unknown" not in defined
    for route in ("_chain_result", "_graded_cy"):
        assert call_sites(source, "_route_result").count(route) == 1, route
    for caller in ("height", "height_local", "height_graded_cy"):
        assert "_route_result" in reached_names(source, caller), caller
    height_def = next(n for n in ast.parse(source).body if getattr(n, "name", None) == "height")
    assert "graded" not in {n.name for n in ast.walk(height_def) if isinstance(n, ast.FunctionDef)}


def test_chain_levels_continue_from_the_previous_basis():
    """Each level's ideal run starts from the previous level's reduced
    basis: `_Chain.advance` passes `self.basis`, J_n's basis, to
    `_reduced_basis` as its finished prefix `done`, and only the first
    level, in `_Chain._reduced`, is reduced from its generators alone.
    The strict-chain search reads the chain's records (`chain.steps`)."""
    source = (REPO / "src" / "qfsplit" / "criteria.py").read_text()
    assert call_sites(source, "_reduced_basis") == ["_Chain._reduced", "_Chain.advance"]
    chain = next(n for n in ast.parse(source).body if getattr(n, "name", None) == "_Chain")
    advance = next(n for n in chain.body if getattr(n, "name", None) == "advance")
    (call,) = [
        n for n in ast.walk(advance)
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_reduced_basis"
    ]
    done = [k.value for k in call.keywords if k.arg == "done"] or call.args[3:4]
    assert [ast.unparse(d) for d in done] == ["self.basis"]
    (search,) = [
        n for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_strict_chain_search"
    ]
    assert "chain.steps" in [ast.unparse(a) for a in search.args + [k.value for k in search.keywords]]


def test_the_cli_checks_every_certificate_on_one_path():
    """Every command that re-checks a certificate (`height --verify`,
    `qfs --verify`, `verify-chain`, `verify-infty` and `product`) hands it
    to `_add_verification`, the CLI's one call of `verify_certificate`, and
    the CLI imports and reads no other verifier: so malformed data and an
    input past the exponent limit read as a failed check from every one."""
    from qfsplit import criteria

    source = (REPO / "src" / "qfsplit" / "cli.py").read_text()
    assert call_sites(source, "verify_certificate") == ["_add_verification"]
    assert sorted(call_sites(source, "_add_verification")) == [
        "_run_height", "_run_product", "_run_qfs", "_run_verify_chain", "_run_verify_infty",
    ]
    verifiers = {name for name in vars(criteria) if name.startswith("verify_")}
    assert {"verify_witness_chain", "verify_infinity_certificate"} < verifiers
    tree = ast.parse(source)
    named = {
        alias.name.split(".")[-1]
        for n in ast.walk(tree)
        if isinstance(n, (ast.Import, ast.ImportFrom))
        for alias in n.names
    }
    named |= {
        n.attr if isinstance(n, ast.Attribute) else n.id
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute))
    }
    assert named & verifiers == {"verify_certificate"}
