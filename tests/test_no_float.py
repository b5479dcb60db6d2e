"""No floating point in the library: an AST scan of src/cubicdescent/ for
float literals, calls to float() and math functions other than the
integer ones.  The only float the library keeps is a timing: the
elapsed_ms field of SearchResult and its parse from JSON, allowed by
name."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cubicdescent"
INTEGER_MATH = {"gcd", "isqrt", "lcm", "comb", "prod"}
#: (module, enclosing class or function, field) of the allowed floats
TIMING_FIELDS = {("pointsearch.py", "SearchResult", "elapsed_ms"),
                 ("serialize.py", "parse_search_result", "elapsed_ms")}


class FloatScan(ast.NodeVisitor):
    """Collects (line, what) for every float literal, float() call and
    math function outside INTEGER_MATH, skipping the timing fields."""

    def __init__(self, module: str):
        self.module = module
        self.scope = None
        self.field = None
        self.found = []

    def _enter(self, node, **state):
        saved = self.scope, self.field
        self.scope = state.get("scope", self.scope)
        self.field = state.get("field", self.field)
        self.generic_visit(node)
        self.scope, self.field = saved

    def visit_ClassDef(self, node):
        self._enter(node, scope=node.name)

    def visit_FunctionDef(self, node):
        self._enter(node, scope=node.name)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_AnnAssign(self, node):
        name = node.target.id if isinstance(node.target, ast.Name) else None
        self._enter(node, field=name)

    def visit_keyword(self, node):
        self._enter(node, field=node.arg)

    def _report(self, node, what):
        if (self.module, self.scope, self.field) not in TIMING_FIELDS:
            self.found.append((node.lineno, what))

    def visit_Constant(self, node):
        if isinstance(node.value, (float, complex)):
            self._report(node, f"float literal {node.value!r}")

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "float":
            self._report(node, "call to float()")
        self.generic_visit(node)

    def visit_Attribute(self, node):
        if (isinstance(node.value, ast.Name) and node.value.id == "math"
                and node.attr not in INTEGER_MATH):
            self._report(node, f"math.{node.attr}")
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module == "math":
            for alias in node.names:
                if alias.name not in INTEGER_MATH:
                    self._report(node, f"from math import {alias.name}")


def scan(source: str, module: str = "<test>") -> list:
    visitor = FloatScan(module)
    visitor.visit(ast.parse(source))
    return visitor.found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_library_module_has_no_float(path):
    assert scan(path.read_text(), path.name) == []


def test_scan_catches_each_kind():
    assert [what for _, what in scan(
        "import math\nfrom math import gcd, log\nx = 0.5\ny = float(3)\n"
        "z = math.sqrt(2) + math.isqrt(4)\nw = 1e3\n")] == [
        "from math import log", "float literal 0.5", "call to float()",
        "math.sqrt", "float literal 1000.0"]


def test_timing_fields_are_allowed_by_name_only():
    timing = ("class SearchResult:\n    elapsed_ms: float = 0.0\n"
              "    other_ms: float = 0.0\n")
    assert scan(timing, "pointsearch.py") == [(3, "float literal 0.0")]
    assert len(scan(timing, "serialize.py")) == 2
    parse = ("def parse_search_result(d):\n"
             "    return f(elapsed_ms=float(d), rate=float(d))\n")
    assert scan(parse, "serialize.py") == [(2, "call to float()")]
