"""The README's library quick tour runs, and shows what its comments say."""

import ast
from pathlib import Path

import nsbox

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour_block() -> str:
    """The ```python block under the "Library quick tour" heading."""
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def run_quick_tour() -> list:
    """Exec the block one statement at a time; return the value of each
    bare expression, the lines whose results the comments state."""
    namespace: dict = {}
    shown = []
    for node in ast.parse(quick_tour_block()).body:
        if isinstance(node, ast.Expr):
            shown.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    return shown


def test_quick_tour_results():
    chsh, causality_ok, locality, tv, verdict = run_quick_tour()
    assert chsh == 3.0
    assert causality_ok is False
    assert locality is nsbox.Locality.NONLOCAL
    assert tv > 0
    assert verdict is nsbox.Verdict.SIGNALLING
