"""Every public top-level def or class of the library is reached by the code
that runs: some other top-level statement of src/rdmsim/ or bench/ names
it, as a bare name, an attribute or a string that getattr resolves.  A
name that only tests call is dead weight, unless it is a TEST_ORACLES
entry: a user-facing function that the library itself has no reason to
call.  Such a function calls no private function of the library, so it
does not share the runners' formulas.  A reference that only tests use
lives in the tests.  A private top-level def or class must be named by
another top-level statement of the library itself."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TEST_ORACLES = {
    "read_trajectory_binary": "the only reader of the .rdmt format that io writes",
}


def _names(node) -> set:
    """Every name, attribute and string constant inside node."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def _library_trees() -> dict:
    return {path: ast.parse(path.read_text())
            for path in sorted((ROOT / "src" / "rdmsim").glob("*.py"))}


def unreached(private: bool) -> set:
    """Public (or private) top-level defs and classes of the library that no
    other top-level statement of the library, or for a public one of the
    bench, names."""
    trees = _library_trees()
    library = list(trees)
    if not private:
        trees.update((path, ast.parse(path.read_text()))
                     for path in sorted((ROOT / "bench").glob("*.py")))
    named = [(stmt, _names(stmt)) for tree in trees.values() for stmt in tree.body
             if not isinstance(stmt, (ast.Import, ast.ImportFrom))]
    return {stmt.name for path in library for stmt in trees[path].body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and stmt.name.startswith("_") == private
            and not any(stmt.name in names for other, names in named if other is not stmt)}


def test_every_public_name_is_reached():
    assert unreached(private=False) == set(TEST_ORACLES)


def test_every_private_name_is_reached_by_the_library():
    assert unreached(private=True) == set()


def private_calls() -> dict:
    """For each test oracle, the private top-level functions of the library
    that it calls, by bare name or as an attribute."""
    defs = [stmt for tree in _library_trees().values() for stmt in tree.body
            if isinstance(stmt, ast.FunctionDef)]
    private = {stmt.name for stmt in defs if stmt.name.startswith("_")}
    calls = {}
    for stmt in defs:
        if stmt.name in TEST_ORACLES:
            called = {sub.func.id if isinstance(sub.func, ast.Name) else sub.func.attr
                      for sub in ast.walk(stmt) if isinstance(sub, ast.Call)
                      and isinstance(sub.func, (ast.Name, ast.Attribute))}
            calls[stmt.name] = called & private
    return calls


def test_oracles_share_no_private_formula():
    assert private_calls() == {name: set() for name in TEST_ORACLES}
