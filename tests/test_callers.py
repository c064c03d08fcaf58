"""Every function and method defined in src/locallab has a caller outside
tests/, and every dataclass field there has a reader.

A reference is a name, an attribute or a string constant equal to the
function's name (perfbench names the functions it times by string) anywhere
in src/, demos/, perfbench/ or tools/, outside the function's own body.  An
import is not a reference, so a name the package only re-exports from
`locallab/__init__.py` needs a caller or an entry in ALLOWED.

A field is read when an attribute of its name is loaded (`x.field`) anywhere
in those directories; setting it at construction does not count.  A field
kept without a reader needs an entry in ALLOWED_FIELDS.
"""

import ast
import functools
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "locallab"
CALLER_DIRS = ("src", "demos", "perfbench", "tools")

ALLOWED = {
    "lcl_problem_to_json": "writes the JSON that `locallab lcl verify --problem` reads",
    "linearizable_to_json": "writes the JSON that `locallab lin verify --problem` reads",
    "lp_to_json": "writes the JSON that the `locallab lp` verbs read with --lp",
    "star_graph": "public graph constructor, next to path_graph, cycle_graph and complete_graph",
    "all_connected_bipartite_graphs": "the Konig test's corpus; it prunes while it enumerates "
    "rather than filter all 12,113 connected graphs on up to 8 nodes",
}

ALLOWED_FIELDS = {
    "OctopusGadget.witness": "the generator's certificate: the coordinates gen_octopus built the graph from",
    "MatchingVerdict.witness": "the failure witness (an unmatched edge or a clashing pair) a verdict names",
}


def _references(node: ast.AST) -> Counter:
    refs: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            refs[sub.value] += 1
    return refs


@functools.cache
def _uncalled() -> dict[str, str]:
    """{name: "file:line"} of every non-dunder function or method defined in
    src/locallab that nothing outside tests/ and its own body references."""
    refs: Counter = Counter()
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            refs += _references(ast.parse(path.read_text()))
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if refs[node.name] == _references(node)[node.name]:
                out[node.name] = f"{path.name}:{node.lineno}"
    return out


def test_every_function_has_a_caller_outside_tests():
    assert {name: at for name, at in _uncalled().items() if name not in ALLOWED} == {}


def test_every_allowed_name_still_lacks_a_caller():
    """An ALLOWED entry goes once its name gains a caller or is deleted."""
    assert sorted(set(ALLOWED) - set(_uncalled())) == []


def test_no_import_inside_a_function_body():
    """Imports sit at module level, where an import cycle fails at import time."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {
                    f"{path.name}:{sub.lineno}"
                    for sub in ast.walk(node)
                    if isinstance(sub, (ast.Import, ast.ImportFrom))
                }
    assert sorted(found) == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in node.decorator_list
    )


@functools.cache
def _unread_fields() -> dict[str, str]:
    """{"Class.field": "file:line"} of every dataclass field in src/locallab
    whose name no loaded attribute in src/, demos/, perfbench/ or tools/ has."""
    read = set()
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            read |= {
                sub.attr
                for sub in ast.walk(ast.parse(path.read_text()))
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
            }
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    if stmt.target.id not in read:
                        out[f"{node.name}.{stmt.target.id}"] = f"{path.name}:{stmt.lineno}"
    return out


def test_every_dataclass_field_is_read():
    assert {name: at for name, at in _unread_fields().items() if name not in ALLOWED_FIELDS} == {}


def test_every_allowed_field_is_still_unread():
    """An ALLOWED_FIELDS entry goes once its field gains a reader or is deleted."""
    assert sorted(set(ALLOWED_FIELDS) - set(_unread_fields())) == []
