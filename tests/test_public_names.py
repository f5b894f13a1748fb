"""Every public name of the package has a caller in the package.

A name in a module's ``__all__`` counts as reached when another module's
code names it (as a name, an attribute or an import), when its own module's
code loads it, or when the top-level package exports it.  The few names that
nothing in ``src/`` reaches are kept on purpose, each for a stated reason;
anything else unreached is surface that only tests use, and goes.
"""

import ast
import pathlib

import fracwave

SRC = pathlib.Path(fracwave.__file__).parent

# name -> why it stays although no module of the package calls it
KEPT = {
    "boundary.trace_seminorm_bound": "a per-layer metric name of BENCHMARK.json",
    "solver.coefficient_evolution": "a per-layer metric name of BENCHMARK.json",
    "solver.write_snapshots_csv": "the tests' byte reference for write_grid_snapshots_csv",
    "solver.solve_grid": "documented in the README",
    "spectral.grid_sum": "documented in the README",
}


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _named(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _loaded(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_every_public_name_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    named = {module: _named(tree) for module, tree in trees.items()}
    top = _exported(trees["__init__"])
    unreached = set()
    for module, tree in trees.items():
        elsewhere = set().union(*(names for other, names in named.items() if other != module))
        reached = elsewhere | _loaded(tree) | top
        unreached |= {f"{module}.{name}" for name in _exported(tree) - reached}
    assert unreached == set(KEPT)
