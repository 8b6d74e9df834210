"""The README's "Library usage" block runs and prints what its comments state."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import contextrep as cr

README = Path(__file__).resolve().parent.parent / "README.md"


def library_usage_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library usage"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def run_block(source: str) -> dict:
    """Execute the block statement by statement; the value of each bare expression, by its text."""
    namespace: dict = {}
    values = {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values[ast.unparse(stmt)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    return values


def test_library_usage_block():
    values = run_block(library_usage_block())
    assert values["cr.classify_hidden_variable(v, (0.9, 0.1))"] == cr.Deterministic(outcome=1)
    ratio = values["cr.region_measure_ratio(v, 0)"]
    assert type(ratio) is Fraction and ratio == Fraction(43, 81)
    assert values["mc.within_three_sigma"] is True
    assert values["report.verdict"] == "entangled"
    assert values["report.witness.value"] == Fraction(-1051, 6561)
    certificate = values["cr.factorization_certificate(cr.tensor_product_real(a, b))"]
    assert certificate == (
        cr.ProbabilityVector(cr.OutcomeSet(("x", "y")), (Fraction(1, 3), Fraction(2, 3))),
        cr.ProbabilityVector(cr.OutcomeSet(("u", "w")), (Fraction(1, 4), Fraction(3, 4))),
    )
