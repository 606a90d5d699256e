"""The package's knob count: every defaulted parameter plus every
``add_argument`` call in ``erlab/*.py``, counted with ``ast``.

A change that adds or removes a knob moves the pin and says why in
CHANGES.md; an option that only tests set belongs in a module constant
the tests monkeypatch.
"""

import ast
from pathlib import Path

import erlab

KNOBS = 67


def count_knobs(paths) -> int:
    count = 0
    for path in paths:
        for node in ast.walk(ast.parse(Path(path).read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "add_argument"):
                count += 1
    return count


def test_counter_sees_defaults_keyword_defaults_and_flags(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "def f(a, b=1, *, c, d=2):\n"
        "    return lambda x=0: x\n"
        "p.add_argument('--x')\n"
    )
    assert count_knobs([source]) == 4


def test_knob_count_is_pinned():
    assert count_knobs(sorted(Path(erlab.__file__).parent.glob("*.py"))) == KNOBS
