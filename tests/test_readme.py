"""The README's "Library entry points" example, run as written.

Every statement of the example runs in order, through `import lsalgo`, so a
documented name that the package namespace drops fails the import.  Each
bare expression carries a comment stating its result, and the text before
any comma of that comment must equal the printed value.

The README also bounds the code: the `lsalgo` namespace holds exactly the
names its library section lists, and every public name in `src/lsalgo` is
loaded somewhere in `src/` or named in the README, so no export outlives
its last caller.
"""

import ast
import re
from types import ModuleType

from conftest import REPO_ROOT


def readme() -> str:
    return (REPO_ROOT / "README.md").read_text(encoding="utf-8")


def library_example() -> str:
    return re.search(r"## Library entry points\n\n```python\n(.*?)```", readme(), re.S).group(1)


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


def test_namespace_is_the_documented_names():
    """`lsalgo`'s public names, its submodules aside, are the entry points
    the example imports and the types the sentence after it lists, as the
    README's "exactly" says."""
    import lsalgo

    (imports,) = [node for node in ast.parse(library_example()).body
                  if isinstance(node, ast.ImportFrom) and node.module == "lsalgo"]
    entry_points = {alias.name for alias in imports.names}
    sentence = re.search(r"types they return or raise: (.*?)\.", readme(), re.S).group(1)
    types = set(re.findall(r"`(\w+)`", sentence))
    assert (len(entry_points), len(types)) == (8, 5)
    public = {name for name, value in vars(lsalgo).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == entry_points | types


def test_every_public_name_has_a_caller():
    """Each public module-level function, class or assigned name of
    `src/lsalgo`, and each public method of a class there, is loaded by some
    `src/` module or named in the README.

    A `src/` module loads a name through a `Name` read, an attribute, an
    import alias or a string (the handler names in `cli.COMMANDS` are
    strings); the README names it as `name`, `module.name` or name(.  The
    match is by name, not by type: a method counts as used when an attribute
    of that name is read on any object, and a function when a name it shares
    is read or named anywhere.  Names that start with `_` are skipped.
    """
    loaded: set[str] = set()
    defined: list[tuple[str, str]] = []
    for path in sorted((REPO_ROOT / "src" / "lsalgo").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
            elif isinstance(node, ast.alias):
                loaded.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                loaded.add(node.value)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(path.stem, t.id) for t in targets if isinstance(t, ast.Name)]
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                defined += [(f"{path.stem}.{node.name}", method.name) for method in node.body
                            if isinstance(method, ast.FunctionDef)]
    text = readme()
    named = {span.rpartition(".")[2] for span in re.findall(r"`([\w.]+)`", text)}
    used = loaded | named | set(re.findall(r"(\w+)\(", text))
    unused = [f"{where}.{name}" for where, name in defined
              if not name.startswith("_") and name not in used]
    assert unused == []
