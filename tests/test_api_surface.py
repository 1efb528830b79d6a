"""Every public module-level function and class under src/dualattack,
and every public method of its classes, has a caller in the program:
some module of src/ names it outside its own definition, or the
benchmark harness under perfbench/ does.  Every parameter with a
default is passed by some call in src/ or perfbench/.

These caller rules have no exceptions.  A helper only the tests reach,
such as an independent brute-force or closed-form value the tests
compare the program against, belongs in tests/oracles.py.  A parameter
its function never reads is listed in UNREAD_PARAMETERS."""

import ast
from pathlib import Path

import dualattack

SRC = Path(dualattack.__file__).resolve().parent
PERFBENCH = SRC.parents[1] / "perfbench"

def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _perfbench_own():
    # names perfbench defines at module level: a use of one of them is a
    # use of perfbench's own helper, never a caller of a program name
    own = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for stmt in _parse(path).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                own.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return own


def _perfbench_names():
    # names perfbench uses, less its own
    used = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        used.update(_names(_parse(path)))
    return used - _perfbench_own()


def test_public_names_have_a_caller():
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in _parse(path).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                if not own.startswith("_"):
                    defined.add(own)
            used.update(name for name in _names(stmt) if name != own)
    used.update(_perfbench_names())
    assert sorted(defined - used) == []


def test_public_methods_have_a_caller():
    # a public method of a src/dualattack class is named somewhere in
    # src/ outside its own definition, or in perfbench/
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in _parse(path).body:
            if not isinstance(stmt, ast.ClassDef):
                used.update(_names(stmt))
                continue
            for item in stmt.body:
                own = None
                if isinstance(item, ast.FunctionDef):
                    own = item.name
                    if not own.startswith("_"):
                        defined.add("%s.%s" % (stmt.name, own))
                used.update(name for name in _names(item) if name != own)
    used.update(_perfbench_names())
    assert sorted(m for m in defined if m.split(".")[1] not in used) == []


def _optional_params(path):
    # (callable name, parameter, positional index or None) for every
    # parameter with a default of a public function, method or class
    # constructor; a method's index leaves out self or cls
    def params(name, args, skip):
        pos = (args.posonlyargs + args.args)[skip:]
        for i, arg in enumerate(pos[len(pos) - len(args.defaults):],
                                len(pos) - len(args.defaults)):
            yield name, arg.arg, i
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None

    for stmt in _parse(path).body:
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
            yield from params(stmt.name, stmt.args, 0)
        if not isinstance(stmt, ast.ClassDef) or stmt.name.startswith("_"):
            continue
        if any("dataclass" in set(_names(d)) for d in stmt.decorator_list):
            fields = [f for f in stmt.body if isinstance(f, ast.AnnAssign)]
            for i, field in enumerate(fields):
                if field.value is not None:
                    yield stmt.name, field.target.id, i
        for item in stmt.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            static = "staticmethod" in {getattr(d, "id", None)
                                        for d in item.decorator_list}
            if item.name == "__init__":
                yield from params(stmt.name, item.args, 1)
            elif not item.name.startswith("_"):
                yield from params(item.name, item.args, 0 if static else 1)


def _calls(path):
    # callee name -> (positional count, keyword names) per call; a *
    # argument passes every later position and ** every keyword
    for node in ast.walk(_parse(path)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        npos = len(node.args)
        if any(isinstance(a, ast.Starred) for a in node.args):
            npos = float("inf")
        yield name, npos, {kw.arg for kw in node.keywords}


def test_optional_parameters_have_a_caller():
    calls, own = {}, _perfbench_own()
    for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        for name, npos, kws in _calls(path):
            if path.parent != PERFBENCH or name not in own:
                calls.setdefault(name, []).append((npos, kws))
    unpassed = set()
    for path in sorted(SRC.glob("*.py")):
        for name, param, index in _optional_params(path):
            if not any(param in kws or None in kws
                       or (index is not None and index < npos)
                       for npos, kws in calls.get(name, ())):
                unpassed.add("%s(%s)" % (name, param))
    assert sorted(unpassed) == []


# a parameter its function's body never names, kept on purpose
UNREAD_PARAMETERS = {
    "exponent_curve(seed)": "no exponent point draws a random number, but "
                            "the benchmark's exponent-point still passes it",
}


def _unread_parameters(path):
    # "name(param)" for every parameter of a function, method or lambda
    # that its body never names, leaving out names starting with "_" and
    # a method's receiver, which its class's protocol fixes
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Lambda):
            name, body = "lambda", [node.body]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name, body = node.name, node.body
        else:
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            a for a in (args.vararg, args.kwarg) if a is not None]
        named = {n for stmt in body for n in _names(stmt)}
        for arg in params:
            if arg.arg not in named and not (arg.arg.startswith("_")
                                             or arg.arg in ("self", "cls")):
                yield "%s(%s)" % (name, arg.arg)


def test_parameters_are_read():
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        unread.update(_unread_parameters(path))
    assert sorted(unread) == sorted(UNREAD_PARAMETERS)
