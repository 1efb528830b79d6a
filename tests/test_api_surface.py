"""Every public module-level function and class under src/dualattack,
and every public method of its classes, has a caller in the program:
some module of src/ names it outside its own definition, or the
benchmark harness under perfbench/ does.

A helper only the tests reach fails here unless it is listed in
REFERENCE_ORACLES, the independent brute-force or closed-form values
the tests compare the program against."""

import ast
from pathlib import Path

import dualattack

SRC = Path(dualattack.__file__).resolve().parent
PERFBENCH = SRC.parents[1] / "perfbench"

REFERENCE_ORACLES = {
    "character_sum_oracle": "brute-force character sum that checks the "
                            "Krawtchouk formula",
    "coset_weight_enumerator": "exhaustive coset weight histogram that "
                               "checks decoder candidates",
    "gv_distance": "exact Gilbert-Varshamov radius that fixes the "
                   "acceptance instances",
    "floor_value": "scalar Bessel floor term that checks the vectorized "
                   "floor scores",
    "candidate_bound": "expected-candidate ceiling that bounds the "
                       "decoder's candidate count in criterion 5",
}


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
    for path in sorted(PERFBENCH.glob("*.py")):
        used.update(_names(_parse(path)))
    # a name missing here is test-only; a name listed here but called
    # from the program no longer belongs in the list
    assert sorted(defined - used) == sorted(REFERENCE_ORACLES)


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
    for path in sorted(PERFBENCH.glob("*.py")):
        used.update(_names(_parse(path)))
    assert sorted(m for m in defined if m.split(".")[1] not in used) == []
