"""Source-level rules that keep validation checks from failing open and loops exact."""

import ast
import re
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


def _iteration_caps(tree: ast.AST) -> list[int]:
    """Lines of `for ... in range(...)` bounded by a `max_iter`-style name: an iteration cap."""
    lines = []
    for node in ast.walk(tree):
        call = node.iter if isinstance(node, ast.For) else None
        if not (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "range"):
            continue
        for sub in (s for arg in call.args for s in ast.walk(arg)):
            name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
            if isinstance(name, str) and re.search(r"max_?iter", name, re.IGNORECASE):
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


def test_no_iteration_caps():
    """Limits come in closed form (e.g. `classical.cesaro_projector`), not from capped loops."""
    found = {path.name: _iteration_caps(ast.parse(path.read_text()))
             for path in sorted(SOURCE.glob("*.py"))}
    assert "classical.py" in found
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_guard_flags_the_iteration_caps():
    src = ("for _ in range(max_iter):\n    pass\n"
           "for i in range(STATIONARY_MAX_ITER):\n    pass\n"
           "for _ in range(self.max_iterations + 1):\n    pass\n"
           "for _ in range(0, opts.maxiter):\n    pass\n"
           "for _ in range(n_max + 1):\n    pass\n"
           "for depth in range(opts.n_max):\n    pass\n"
           "for x in max_iter:\n    pass\n")
    assert _iteration_caps(ast.parse(src)) == [1, 3, 5, 7]
