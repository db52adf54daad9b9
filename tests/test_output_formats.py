"""The CLI alone owns the output formats: the library writes no files, the
CLI does, and the library returns plain data (numbers, arrays, dicts).

A module of src/rotstar outside ALLOWED that imports json or csv, or calls
.tolist() (the step from an array to a JSON list), is defining part of a
file format; the modules are read by ast, so nothing is imported or run.
"""

import ast
import os

import rotstar

SRC = os.path.dirname(rotstar.__file__)

#: the modules that may serialize
ALLOWED = {"cli.py"}
FORMAT_MODULES = {"json", "csv"}


def _format_uses(tree):
    """(line, what) of every json/csv import and .tolist() call."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "tolist"):
            found.append((node.lineno, ".tolist()"))
            continue
        else:
            continue
        found += [(node.lineno, f"import {name}") for name in names
                  if name.split(".")[0] in FORMAT_MODULES]
    return found


def test_format_uses_are_found():
    tree = ast.parse("import json\nfrom csv import writer\nimport os\n"
                     "x = y.tolist()\nz = y.tolist\n")
    assert _format_uses(tree) == [(1, "import json"), (2, "import csv"),
                                  (4, ".tolist()")]


def test_only_the_cli_writes_output_formats():
    offenders = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py") or name in ALLOWED:
            continue
        with open(os.path.join(SRC, name)) as f:
            tree = ast.parse(f.read())
        offenders += [f"{name}:{line}: {what}"
                      for line, what in _format_uses(tree)]
    assert offenders == []
