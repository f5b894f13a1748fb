"""Every default of the package's public surface has a setter in the package.

A defaulted parameter of a public function or of a public method of a
public class, and a defaulted field of a public dataclass, counts as set
when some call in ``src/`` passes it, by keyword or by position (a starred
argument passes every position, a double-starred one every keyword).  Calls
are matched by the callee's name; a callable that ``src/`` also names as a
value (``verify.ALL_CHECKS`` holds the checks, and ``run_all`` calls them
by index) may be called with anything, so each of its defaults counts as
set.  A value no caller in the package varies is a constant, not a
parameter; the few kept anyway are listed, each with its reason.
"""

import ast
import pathlib

import fracwave

SRC = pathlib.Path(fracwave.__file__).parent

# parameter -> why it stays although no call in the package passes it
KEPT = {
    "cli.main.argv": "the process entry, cli.run, calls main() with no argument",
    "solver.SolutionQuery.n_sum": "the manifest's tail (truncation_tail) is built on it",
}


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(_name(dec.func if isinstance(dec, ast.Call) else dec) == "dataclass"
               for dec in node.decorator_list)


def _defaulted(fn: ast.FunctionDef, method: bool):
    """``(name, position or None)`` of each defaulted parameter; positions
    count the arguments a call writes, so a method's ``self`` is left out."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    shift = 1 if method else 0
    for i, arg in enumerate(positional[first:], start=first):
        yield arg.arg, i - shift
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _settable():
    """``(qualified name, callee name, parameter, position)`` over ``src/``."""
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                for name, pos in _defaulted(node, method=False):
                    yield f"{module}.{node.name}.{name}", node.name, name, pos
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                          and isinstance(s.target, ast.Name)] if _is_dataclass(node) else []
                for pos, stmt in enumerate(fields):
                    if stmt.value is not None and not stmt.target.id.startswith("_"):
                        yield (f"{module}.{node.name}.{stmt.target.id}", node.name,
                               stmt.target.id, pos)
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                        for name, pos in _defaulted(fn, method=True):
                            yield f"{module}.{node.name}.{fn.name}.{name}", fn.name, name, pos


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation
        elif isinstance(node, ast.FunctionDef):
            yield node.returns


def _calls():
    """callee name -> ``(positional count, keywords)`` of every call in ``src/``;
    a starred argument counts as every position, ``**`` as every keyword, and
    a name loaded other than as a callee or in an annotation as a call that
    passes everything."""
    calls = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        skip = {id(node) for note in _annotations(tree) if note is not None
                for node in ast.walk(note)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                skip.add(id(node.func))
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                count = float("inf") if starred else len(node.args)
                keywords = {kw.arg for kw in node.keywords}
                calls.setdefault(_name(node.func), []).append((count, keywords))
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                    and id(node) not in skip):
                calls.setdefault(_name(node), []).append((float("inf"), {None}))
    return calls


def _passes(call, param: str, pos) -> bool:
    count, keywords = call
    return param in keywords or None in keywords or (pos is not None and pos < count)


def test_every_default_has_a_setter():
    calls = _calls()
    unset = {qual for qual, callee, param, pos in _settable()
             if not any(_passes(call, param, pos) for call in calls.get(callee, ()))}
    assert unset == set(KEPT)
