"""Every module-level import in ``src/blockpoly`` is referenced, every
error class is raised, every module-level private function is used by the
package itself, every public one has a reader outside tests, and every
defaulted parameter has a caller outside tests that sets it.

No linter runs on the package, so this keeps deleted code from leaving its
imports, its error classes or its helpers behind (a helper that only tests
call is dead code).  ``__init__`` is skipped: its imports are the public API.
"""

import ast
import pathlib

import pytest

from test_bench_spans import _load_tracer

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "blockpoly"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

#: Public functions that nothing in the package, the API or the bench reads.
KEPT_PUBLIC = {
    ("horner", "convergence_bounds_check"): "the residual sandwich of acceptance criterion 8",
    ("io", "save_polynomial"): "the writer of the file format that load_polynomial reads",
    ("qd", "qd_step"): "the one-sweep form that tests drive on arbitrary tableaux",
}


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    assert _unused_imports(path) == []


def _raised_calls():
    """``(name, call)`` for every ``raise Name(...)`` outside ``errors.py``."""
    for path in MODULES:
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name)):
                yield node.exc.func.id, node.exc


def test_every_error_class_is_raised():
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)
               and any(getattr(base, "id", None) == "BlockPolyError" for base in node.bases)}
    assert sorted(classes - {name for name, _ in _raised_calls()}) == []


def test_pipeline_stages_are_refine_and_transform():
    stages = [call.args[0] for name, call in _raised_calls() if name == "PipelineStageError"]
    assert stages and all(isinstance(s, ast.Constant) for s in stages)
    assert {s.value for s in stages} <= {"refine", "transform"}


def _references():
    """``(path, top-level name, name)`` for every name and attribute that a
    top-level statement of ``src/blockpoly`` reads."""
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    yield path, owner, node.id
                elif isinstance(node, ast.Attribute):
                    yield path, owner, node.attr


def _read_elsewhere(refs, path, name):
    """Whether a top-level statement other than ``name``'s own def reads it."""
    return any(ref == name and (where, owner) != (path, name) for where, owner, ref in refs)


def test_every_private_function_is_used_in_the_package():
    private = {(path, node.name) for path in MODULES
               for node in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
               and not node.name.startswith("__")}
    refs = set(_references())
    unused = [f"{path.name}:{name}" for path, name in private
              if not _read_elsewhere(refs, path, name)]
    assert sorted(unused) == []


def _top_functions(path):
    return [node for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.FunctionDef)]


def _is_click_command(node):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def test_every_public_function_has_a_reader():
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = {(node.module, a.name) for node in init.body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    traced = {(home.rsplit(".", 1)[-1], name) for home, name in _load_tracer().SPANS}
    refs = set(_references())
    unread = []
    for path in MODULES:
        for node in _top_functions(path):
            key = (path.stem, node.name)
            if (node.name.startswith("_") or key in exported or key in traced
                    or key in KEPT_PUBLIC or _is_click_command(node)):
                continue
            if not _read_elsewhere(refs, path, node.name):
                unread.append(f"{path.name}:{node.name}")
    assert sorted(unread) == []


def test_kept_public_functions_exist_and_have_no_other_reader():
    # An allowlist entry that a rename left behind, or that a new reader made
    # unnecessary, is removed.
    refs = set(_references())
    for (module, name), reason in KEPT_PUBLIC.items():
        path = SRC / f"{module}.py"
        assert reason and name in {node.name for node in _top_functions(path)}
        assert not _read_elsewhere(refs, path, name), f"{module}.{name} has a reader"


#: Defaulted parameters that no call the scan can see passes.
KEPT_DEFAULTS = {
    ("horner", "horner_iterate", "cfg"): "called through `pipeline.refiner`",
    ("horner", "two_stage", "cfg"): "called through `pipeline.refiner`",
}

BENCH = SRC.parent.parent / "bench"


def _defaulted_parameters():
    """``(module, callable, parameter, position)`` for every parameter with a
    default of a top-level function or an error class's ``__init__``;
    ``position`` is None for a keyword-only one."""
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and path.name == "errors.py":
                func = next((f for f in node.body if isinstance(f, ast.FunctionDef)
                             and f.name == "__init__"), None)
                skip = 1            # self
            elif isinstance(node, ast.FunctionDef):
                func, skip = node, 0
            else:
                continue
            if func is None:
                continue
            args = func.args
            positional = args.posonlyargs + args.args
            for i, arg in enumerate(positional[len(positional) - len(args.defaults):],
                                    len(positional) - len(args.defaults)):
                yield path.stem, node.name, arg.arg, i - skip
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield path.stem, node.name, arg.arg, None


def _calls():
    """``(callee name, call)`` for every call of a plain or dotted name in
    ``src/blockpoly`` and ``bench``."""
    for path in [*SRC.glob("*.py"), *BENCH.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name:
                    yield name, node


def _passes(call, param, position):
    """Whether ``call`` passes ``param`` by name, by position or by unpacking."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def test_every_defaulted_parameter_is_set_by_a_caller():
    # A default that every caller takes is a constant, not an option.
    calls = list(_calls())
    unset = [f"{module}.{name}({param})"
             for module, name, param, position in _defaulted_parameters()
             if (module, name, param) not in KEPT_DEFAULTS
             and not any(callee == name and _passes(call, param, position)
                         for callee, call in calls)]
    assert sorted(unset) == []


def test_kept_defaults_exist_and_have_no_setter():
    defaulted = {(module, name, param): position
                 for module, name, param, position in _defaulted_parameters()}
    calls = list(_calls())
    for (module, name, param), reason in KEPT_DEFAULTS.items():
        assert reason and (module, name, param) in defaulted
        position = defaulted[module, name, param]
        assert not any(callee == name and _passes(call, param, position)
                       for callee, call in calls), f"{module}.{name}({param}) has a setter"
