"""One floating-point boundary: numpy's overflow warnings never reach the
user of the command line, and cli.main says so once, by running the
configuration and the command under np.errstate(all="ignore").

The library states no such guard of its own: its finiteness checks raise
typed errors, and a caller of the library sees numpy's warnings.  The one
exception is EquationOfState._hinv_root, whose bracketed Newton overflows
on the way to a root that it does find.  A function of src/rotstar outside
ALLOWED that names np.errstate (a with statement or a decorator) states the
rule again; the modules are read by ast, so nothing is imported or run.
"""

import ast
import os

import rotstar

SRC = os.path.dirname(rotstar.__file__)

#: (module, qualified function name) of the two guards
ALLOWED = {("cli.py", "main"), ("eos.py", "EquationOfState._hinv_root")}


def _errstate_uses(tree):
    """(line, qualified name of the enclosing function, or "" at module
    level) of every use of errstate, as np.errstate or an imported name."""
    found = []

    def visit(node, scope, prefix):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = prefix + node.name     # its decorators included
            prefix = scope + ".<locals>."
        elif isinstance(node, ast.ClassDef):
            prefix += node.name + "."
        elif isinstance(node, ast.Attribute) and node.attr == "errstate" \
                or isinstance(node, ast.Name) and node.id == "errstate":
            found.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, prefix)

    visit(tree, "", "")
    return sorted(found)


def test_errstate_uses_are_found():
    tree = ast.parse("import numpy as np\nfrom numpy import errstate\n"
                     "with np.errstate(all='ignore'):\n    pass\n"
                     "class A:\n"
                     "    @np.errstate(over='ignore')\n"
                     "    def f(self):\n"
                     "        def g():\n"
                     "            with errstate(invalid='ignore'):\n"
                     "                pass\n"
                     "x = np.seterr\n")
    assert _errstate_uses(tree) == [(3, ""), (6, "A.f"),
                                    (9, "A.f.<locals>.g")]


def test_only_the_cli_and_the_generic_inverse_guard_numpy_warnings():
    uses = set()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as f:
                tree = ast.parse(f.read())
            uses |= {(name, where, line)
                     for line, where in _errstate_uses(tree)}
    assert sorted(f"{name}:{line}: {where or '<module>'}"
                  for name, where, line in uses
                  if (name, where) not in ALLOWED) == []
    assert {(name, where) for name, where, _ in uses} == ALLOWED
