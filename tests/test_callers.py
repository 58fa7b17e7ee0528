"""Every public top-level function or class of the package has a caller,
and no module reads an underscore attribute that another module defines.

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


def _private_attributes(tree):
    """Underscore names a module defines that others could read as
    attributes: its top-level definitions, the methods and fields its
    classes declare, and every attribute it assigns."""
    names = {n.attr for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)}
    bodies = [tree.body] + [cls.body for cls in ast.walk(tree)
                            if isinstance(cls, ast.ClassDef)]
    for stmt in (stmt for body in bodies for stmt in body):
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def foreign_private_reads(package_dir):
    """`module.definition reads .name` for each underscore attribute a
    module reads that only another module of the package defines."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(package_dir.glob("*.py"))}
    defined = {module: _private_attributes(tree)
               for module, tree in trees.items()}
    found = set()
    for module, tree in trees.items():
        foreign = set().union(*(names for other, names in defined.items()
                                if other != module)) - defined[module]
        for stmt in tree.body:
            found.update("%s.%s reads .%s"
                         % (module, getattr(stmt, "name", "<top>"), n.attr)
                         for n in ast.walk(stmt)
                         if isinstance(n, ast.Attribute)
                         and isinstance(n.ctx, ast.Load)
                         and n.attr in foreign)
    return sorted(found)


def test_no_module_reads_another_modules_private_attribute():
    assert foreign_private_reads(PACKAGE) == []
