"""Every public top-level function or class of the package has a caller.

A name counts as used when another top-level statement of some module
reads it, as a name or as an attribute.  Re-exports in `__init__` do not
count, and neither do tests.
"""

import ast
import pathlib

import foamlbm

PACKAGE = pathlib.Path(foamlbm.__file__).parent


def _read_names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}


def unused_public_definitions(package_dir):
    defined = []  # (module, name, defining statement)
    statements = []
    for path in sorted(package_dir.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            statements.append(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                    and not stmt.name.startswith("_"):
                defined.append((path.stem, stmt.name, stmt))
    reads = [(stmt, _read_names(stmt)) for stmt in statements]
    return sorted("%s.%s" % (module, name) for module, name, own in defined
                  if not any(name in names for stmt, names in reads
                             if stmt is not own))


def test_every_public_definition_has_a_caller():
    assert unused_public_definitions(PACKAGE) == []
