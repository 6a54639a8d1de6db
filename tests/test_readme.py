"""The library example in README.md runs as written and gives the values
its comments state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The python block under the "## Library example" heading."""
    section = README.read_text().split("\n## Library example\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example():
    namespace: dict = {}
    values = []
    for statement in ast.parse(library_example()).body:
        if isinstance(statement, ast.Expr):
            values.append(eval(compile(ast.Expression(statement.value), README.name, "eval"), namespace))
        else:
            exec(compile(ast.Module([statement], type_ignores=[]), README.name, "exec"), namespace)
    classes, dual_dim, bounds, consistent = values
    assert classes == [1, 2, 3651, 7302]
    assert dual_dim == 1
    assert bounds.lower == bounds.upper == 1
    assert consistent is True
