"""Source-level rules that keep validation checks from failing open and loops exact."""

import ast
import importlib
import re
import tracemalloc
from pathlib import Path

import pytest

import szwalk
from szwalk.walks import coin_vertex_instrument, position_instrument

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


def _untyped_count_checks(tree: ast.AST) -> list[int]:
    """Lines of `if <name> <ordering> <int literal>: raise`: a count check without the number
    rule, which lets a bool pass as 0 or 1 and a float or NaN through to a later TypeError."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.If) or not any(isinstance(s, ast.Raise) for s in node.body):
            continue
        tests = node.test.values if isinstance(node.test, ast.BoolOp) else [node.test]
        if any(isinstance(t, ast.Compare) and isinstance(t.left, ast.Name)
               and any(isinstance(op, ORDERINGS) for op in t.ops)
               and any(isinstance(c, ast.Constant) and type(c.value) is int
                       for c in t.comparators) for t in tests):
            lines.append(node.lineno)
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


def test_count_checks_follow_the_number_rule():
    """A count is checked as `require(is_kind(n, numbers.Integral) and n >= 1, ...)`."""
    found = {path.name: _untyped_count_checks(ast.parse(path.read_text()))
             for path in sorted(SOURCE.glob("*.py"))}
    assert "walks.py" in found
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_guard_flags_the_untyped_count_checks():
    src = ("if N < 2:\n    raise E()\n"
           "if not x >= 0:\n    raise E()\n"  # eta's NaN-safe check
           "if m <= 0 or flag:\n    raise E()\n"
           "if n < 1:\n    x = 1\n"
           "if res > 1.5:\n    raise E()\n"
           "if dim >= 1:\n    pass\nelse:\n    raise E()\n"
           "if len(x) < 2:\n    raise E()\n"
           "if 3 > k:\n    raise E()\n"
           "if a.size < 1:\n    raise E()\n"
           "if n > True:\n    raise E()\n")
    assert _untyped_count_checks(ast.parse(src)) == [1, 5]


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


def _references(tree: ast.AST) -> set[str]:
    """Names read as an `ast.Name` or `ast.Attribute`, each outside the body of the `def` or
    `class` that defines it: a recursive call, a class's own methods or an assignment to the
    name do not count."""
    found = set()

    def visit(node: ast.AST, owners: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if (isinstance(name, str) and name not in owners
                and not isinstance(getattr(node, "ctx", None), ast.Store)):
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    visit(tree, frozenset())
    return found


def test_every_public_name_is_used_by_the_program():
    """A name in `__all__` is referenced by the package outside `__init__.py` or by the
    benchmark: what only the tests call is not exported (their oracles live in
    `tests/helpers.py`). Text in strings and docstrings does not count."""
    files = [p for p in SOURCE.glob("*.py") if p.name != "__init__.py"]
    files += (SOURCE.parents[1] / "perfbench").glob("*.py")
    used = set().union(*(_references(ast.parse(p.read_text())) for p in files))
    assert "sz_entropy_run" in used
    assert sorted(set(szwalk.__all__) - used) == []


def test_guard_flags_the_unreferenced_names():
    src = ("def f(n):\n    return f(n - 1)\n"
           "class C:\n    def m(self):\n        return C()\n"
           "def g():\n    '''h and k'''\n    return mod.h + 'k'\n"
           "X = 1\nmod.y = 2\n")
    assert _references(ast.parse(src)) == {"n", "mod", "h"}


def _definitions(tree: ast.AST) -> list[str]:
    """The top-level functions, classes and constants (assigned names) of a module, dunders
    such as `__all__` aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return [name for name in names if not name.startswith("__")]


def _unreferenced(modules: dict[str, ast.AST], others: list[ast.AST]) -> list[str]:
    """`module.name` of each top-level definition of `modules` that neither they (outside the
    definition itself) nor `others` reference."""
    used = set().union(*map(_references, [*modules.values(), *others]))
    return sorted(f"{module}.{name}" for module, tree in modules.items()
                  for name in _definitions(tree) if name not in used)


def test_every_definition_is_used_by_the_program():
    """A top-level function, class or constant of the package, private or not, is referenced
    by some package module or by the benchmark: a leftover helper that only its tests reach,
    or nothing at all, fails here."""
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SOURCE.glob("*.py"))}
    bench = [ast.parse(p.read_text()) for p in (SOURCE.parents[1] / "perfbench").glob("*.py")]
    assert "_merge_keys" in _definitions(modules["sz"]) and bench
    assert _unreferenced(modules, bench) == []


def test_guard_flags_a_leftover_helper():
    module = ast.parse("LIMIT = 3\n_ZEROS: dict = {}\n__all__ = ['run']\n"
                       "def _weigh(x):\n    return _weigh(x)\n"
                       "def _used():\n    return LIMIT\n"
                       "class Run:\n    def again(self):\n        return Run()\n"
                       "def run():\n    return _used()\n")
    other = ast.parse("import m\nm.run()\n_ZEROS = None\n")
    assert _unreferenced({"m": module}, [other]) == ["m.Run", "m._ZEROS", "m._weigh"]


def _ix_uses(tree: ast.AST) -> list[int]:
    """Lines that reach `ix_` (as `np.ix_`, `numpy.ix_` or an imported name): a support held as
    an open-mesh index tuple beside the flat index of `Instrument.supports`."""
    lines = []
    for node in ast.walk(tree):
        names = ([alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                 else [node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)])
        if "ix_" in names:
            lines.append(node.lineno)
    return sorted(lines)


def test_one_support_representation():
    """A support is one flat index of S×S: no `np.ix_` tuples anywhere in the package."""
    found = {path.name: _ix_uses(ast.parse(path.read_text()))
             for path in sorted(SOURCE.glob("*.py"))}
    assert "quantum.py" in found
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_guard_flags_the_ix_uses():
    src = ("import numpy as np\n"
           "a = rho[np.ix_(s, s)]\n"
           "from numpy import ix_, take\n"
           "b = ix_(s, s)\n"
           "c = rho.take(flat)\n"
           "d = 'np.ix_ in a string'\n"
           "e = numpy.ix_\n"
           "f = self.ix\n")
    assert _ix_uses(ast.parse(src)) == [2, 3, 4, 7]


def _kraus_reads(tree: ast.AST) -> list[int]:
    """Lines that reach an attribute `.kraus`: the dense operators, scattered from the blocks on
    each request, which only tests, oracles and outside callers should want."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "kraus")


def test_only_quantum_reads_the_dense_kraus_view():
    """An instrument is its support blocks: the package works on `Instrument.supports`, and
    the dense `kraus` view is defined, not read, in `quantum.py`."""
    found = {path.name: _kraus_reads(ast.parse(path.read_text()))
             for path in sorted(SOURCE.glob("*.py")) if path.name != "quantum.py"}
    assert "sz.py" in found
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_guard_flags_the_kraus_reads():
    src = ("a = t.kraus\n"
           "b = 'instrument.kraus'\n"
           "for k in config.instrument.kraus:\n    pass\n"
           "c = kraus\n"
           "d = t.kraus_count\n"
           "e = getattr(t, 'supports')\n"
           "f = [b for b in t.kraus]\n")
    assert _kraus_reads(ast.parse(src)) == [1, 3, 8]


@pytest.mark.parametrize("build", [coin_vertex_instrument, position_instrument])
def test_walk_instruments_allocate_no_dense_operators(build):
    """At N=49 (dimension 98) one dense operator takes 150 KiB, so the 98 coin-vertex or 49
    position operators alone would take 14.4 or 7.2 MiB; the blocks and checks stay under 1 MiB."""
    build(3)  # imports and first-call caches do not count
    tracemalloc.start()
    try:
        build(49)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def _perfbench_hooks() -> tuple:
    """`HOOKS` of `perfbench/spans.py`, read from its source as a literal: the
    (module, attributes, span name) entries whose functions the benchmark wraps."""
    tree = ast.parse((SOURCE.parents[1] / "perfbench" / "spans.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets))


def _missing_hooks(hooks) -> list[str]:
    """`module.attribute` of every hook that names no attribute of its module."""
    return [f"{module}.{attr}" for module, attrs, _ in hooks for attr in attrs
            if not hasattr(importlib.import_module(module), attr)]


def test_every_perfbench_hook_exists():
    """The benchmark traces by replacing module attributes, so a renamed or removed function
    would only fail a traced run: every hooked name must exist in the package."""
    hooks = _perfbench_hooks()
    assert ("szwalk.sz", ("apply_instrument",), "quantum.apply_instrument") in hooks
    assert _missing_hooks(hooks) == []


def test_guard_flags_a_missing_hook():
    hooks = (("szwalk.sz", ("apply_instrument", "no_such_kernel"), "quantum.apply_instrument"),
             ("szwalk.walks", ("coherent_instrument",), "quantum.instrument_build"))
    assert _missing_hooks(hooks) == ["szwalk.sz.no_such_kernel"]
