"""The README's "Library entry points" example, run as written.

Every statement of the example runs in order, through `import lsalgo`, so a
documented name that the package namespace drops fails the import.  Each
bare expression carries a comment stating its result, and the text before
any comma of that comment must equal the printed value.
"""

import ast
import re

from conftest import REPO_ROOT


def library_example() -> str:
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"## Library entry points\n\n```python\n(.*?)```", readme, re.S).group(1)


def test_library_entry_points_example():
    source = library_example()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for statement in ast.parse(source).body:
        if isinstance(statement, ast.Expr):
            value = eval(compile(ast.Expression(statement.value), "README", "eval"), namespace)
            comment = lines[statement.end_lineno - 1].partition("#")[2]
            checked.append((repr(value), comment.split(",")[0].strip()))
        else:
            exec(compile(ast.Module([statement], []), "README", "exec"), namespace)
    assert len(checked) == 3
    for value, stated in checked:
        assert value == stated
