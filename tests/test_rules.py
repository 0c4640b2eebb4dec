"""Source-level rules that keep validation checks from failing open."""

import ast
from pathlib import Path

import szwalk

SOURCE = Path(szwalk.__file__).parent
ORDERINGS = (ast.Lt, ast.Gt, ast.LtE, ast.GtE)


def _is_tolerance(node: ast.AST) -> bool:
    """A float literal or a tolerance name (`tol`, `*_tol`, `*_TOL`) anywhere inside `node`."""
    for sub in ast.walk(node):
        name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
            return True
        if isinstance(name, str) and (name.lower() == "tol" or name.lower().endswith("_tol")):
            return True
    return False


def _fail_open_checks(tree: ast.AST) -> list[int]:
    """Lines of `if <ordering against a tolerance>: raise`, which a NaN operand skips."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.If) or not any(isinstance(s, ast.Raise) for s in node.body):
            continue
        for cmp in (c for c in ast.walk(node.test) if isinstance(c, ast.Compare)):
            if (any(isinstance(op, ORDERINGS) for op in cmp.ops)
                    and any(map(_is_tolerance, [cmp.left, *cmp.comparators]))):
                lines.append(node.lineno)
                break
    return lines


def test_tolerance_checks_go_through_require():
    """A check against a tolerance states the condition that holds: `require(res <= TOL, ...)`."""
    found = {path.name: _fail_open_checks(ast.parse(path.read_text()))
             for path in sorted(SOURCE.glob("*.py"))}
    assert "sz.py" in found
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_guard_flags_the_fail_open_forms():
    src = ("if res > ORTHONORMAL_TOL:\n    raise E()\n"
           "if abs(x) < 1e-300:\n    raise E()\n"
           "if tol <= 0:\n    raise E()\n"
           "if a.min() < -self.tol or ok:\n    raise E()\n"
           "if res > TOL:\n    x = 1\n"
           "if n < 1:\n    raise E()\n")
    assert _fail_open_checks(ast.parse(src)) == [1, 3, 5, 7]
