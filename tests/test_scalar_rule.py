"""One rule for scalar versus array values, in one place: numerics.pointwise
broadcasts a method's arguments, computes at 1-d points and returns their
shape, 0-d for scalars.

A module of src/rotstar outside ALLOWED that calls np.atleast_1d or
functools.wraps is stating that rule again, or writing another decorator
beside it; the modules are read by ast, so nothing is imported or run.
"""

import ast
import os

import rotstar

SRC = os.path.dirname(rotstar.__file__)

#: the module that owns the rule
ALLOWED = {"numerics.py"}
RULE_CALLS = {"atleast_1d", "wraps"}


def _rule_calls(tree):
    """(line, name) of every call of atleast_1d or wraps, by attribute
    (np.atleast_1d, functools.wraps) or by imported name."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) \
            else getattr(func, "id", None)
        if name in RULE_CALLS:
            found.append((node.lineno, name))
    return sorted(found)


def test_rule_calls_are_found():
    tree = ast.parse("import functools\nfrom functools import wraps\n"
                     "x = np.atleast_1d(y)\n"
                     "@functools.wraps(f)\ndef g(): pass\n"
                     "@wraps(f)\ndef h(): pass\n"
                     "z = np.atleast_1d\nw = np.atleast_2d(y)\n")
    assert _rule_calls(tree) == [(3, "atleast_1d"), (4, "wraps"),
                                 (6, "wraps")]


def test_only_numerics_states_the_scalar_rule():
    offenders = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py") or name in ALLOWED:
            continue
        with open(os.path.join(SRC, name)) as f:
            tree = ast.parse(f.read())
        offenders += [f"{name}:{line}: {what}"
                      for line, what in _rule_calls(tree)]
    assert offenders == []
