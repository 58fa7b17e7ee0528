"""Every public top-level function or class of the package has a caller,
and so has every public method or property of its classes; no module
reads an underscore attribute that another module defines, no class field
is written and never read, and every name is imported from the module
that defines it.  Every exception the package raises ends as an exit
code of `cli.main`, or is caught by the one caller that expects it.

A name counts as used when another top-level statement of some module
reads it, as a name or as an attribute.  A method or property is reached
only as an attribute, so it counts as used when some package statement
outside its own definition reads an attribute of its name, or when the
benchmark does: a `perfbench/` module reads it, or the tracer's TIMING or
LAYERS table names it.  Tests do not count.  A field counts as read when
the package, the benchmark or a test reads an attribute of its name.
"""

import ast
import pathlib
from collections import Counter

import foamlbm
from test_traced_names import load_tracer

PACKAGE = pathlib.Path(foamlbm.__file__).parent
TESTS = pathlib.Path(__file__).parent
PERFBENCH = TESTS.parent / "perfbench"


def _read_names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}


def unused_public_definitions(package_dir):
    defined = []  # (module, name, defining statement)
    statements = []
    for path in sorted(package_dir.glob("*.py")):
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


def _attribute_reads(node) -> Counter:
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute)
                   and isinstance(n.ctx, ast.Load))


def unused_public_members(package_dir, outside_reads):
    """`module.Class.name` for each public method or property of a package
    class whose name no package statement outside its own definition reads
    as an attribute and `outside_reads` does not hold."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(package_dir.glob("*.py"))}
    reads = sum((_attribute_reads(tree) for tree in trees.values()),
                Counter())
    found = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            found.extend(
                "%s.%s.%s" % (module, cls.name, stmt.name)
                for stmt in cls.body
                if isinstance(stmt, ast.FunctionDef)
                and not stmt.name.startswith("_")
                and reads[stmt.name] == _attribute_reads(stmt)[stmt.name]
                and stmt.name not in outside_reads)
    return sorted(found)


def benchmark_reads():
    """Attribute names the benchmark's modules read, its tests aside, and
    the attributes its tracer's TIMING and LAYERS tables wrap."""
    tracer = load_tracer()
    names = {attr for _, attr, _ in tracer.TIMING + tracer.LAYERS}
    for path in PERFBENCH.glob("*.py"):
        if not path.name.startswith("test_"):
            names.update(_attribute_reads(ast.parse(path.read_text())))
    return names


def test_every_public_method_has_a_caller():
    assert unused_public_members(PACKAGE, benchmark_reads()) == []


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


def write_only_fields(package_dir, readers):
    """`module.Class.field` for each annotated field of a class body in the
    package whose name no file of `readers` reads as an attribute."""
    read = set()
    for path in readers:
        read.update(n.attr for n in ast.walk(ast.parse(path.read_text()))
                    if isinstance(n, ast.Attribute)
                    and isinstance(n.ctx, ast.Load))
    found = []
    for path in sorted(package_dir.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            found.extend("%s.%s.%s" % (path.stem, cls.name, stmt.target.id)
                         for stmt in cls.body
                         if isinstance(stmt, ast.AnnAssign)
                         and isinstance(stmt.target, ast.Name)
                         and stmt.target.id not in read)
    return sorted(found)


def test_every_field_is_read_somewhere():
    readers = [*PACKAGE.glob("*.py"), *PERFBENCH.glob("*.py"),
               *TESTS.glob("*.py")]
    assert write_only_fields(PACKAGE, readers) == []


def _top_level_names(tree):
    """The names a module's own top-level statements define; what it
    imports does not count."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


def indirect_imports(package_dir, sources):
    """`file: from M import n` for each import in `sources` of a package
    name through a module that does not define it, `file: from foamlbm
    import n` for each name that is not a submodule, and `__init__.py:
    import` for each import in the package's `__init__`."""
    modules = {path.stem: _top_level_names(ast.parse(path.read_text()))
               for path in package_dir.glob("*.py")}
    found = ["__init__.py: import"
             for n in ast.walk(ast.parse(
                 (package_dir / "__init__.py").read_text()))
             if isinstance(n, (ast.Import, ast.ImportFrom))]
    for path in sources:
        inside = path.parent == package_dir
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 1 and inside:
                module = node.module
            elif node.level == 0 and node.module \
                    and node.module.split(".")[0] == package_dir.name:
                module = node.module.partition(".")[2] or None
            else:
                continue
            # `from foamlbm import n` and `from . import n` name submodules
            defined = set(modules) if module is None \
                else modules.get(module, set())
            found.extend(
                "%s: from %s%s import %s" % (path.name, "." * node.level,
                                             node.module or "", alias.name)
                for alias in node.names if alias.name not in defined)
    return sorted(found)


def test_one_import_path_per_name():
    sources = [*PACKAGE.glob("*.py"), *TESTS.glob("*.py"),
               *PERFBENCH.glob("*.py")]
    assert indirect_imports(PACKAGE, sources) == []


# the exceptions cli.main maps to exit codes, and argparse's own, which
# parse_args turns into exit 2
MAPPED = {"ConfigError", "SnapshotError", "InstabilityError", "MemoryError",
          "ArgumentTypeError"}
# (module, function, exception) raised for one caller, which turns it
# into a ConfigError: (module, function)
CAUGHT = {
    # a boolean config value that is not one; load_config names the line
    ("config", "_parse_bool", "ValueError"): ("config", "load_config"),
}


def _exception_name(node):
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) \
        else getattr(node, "id", None)


def unhandled_raises(package_dir):
    """`module.definition raises Name` for each raise statement of the
    package whose exception neither cli.main maps nor CAUGHT lists; a bare
    re-raise reads `raises None`."""
    found = []
    for path in sorted(package_dir.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", "<top>")
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Raise):
                    continue
                name = node.exc and _exception_name(node.exc)
                if name not in MAPPED and (path.stem, own, name) not in CAUGHT:
                    found.append("%s.%s raises %s" % (path.stem, own, name))
    return sorted(found)


def caught_names(package_dir, module, function):
    """The exception names the `except` clauses of a top-level function
    name."""
    tree = ast.parse((package_dir / (module + ".py")).read_text())
    fn = next(s for s in tree.body
              if isinstance(s, ast.FunctionDef) and s.name == function)
    return {_exception_name(t) for h in ast.walk(fn)
            if isinstance(h, ast.ExceptHandler)
            for t in (h.type.elts if isinstance(h.type, ast.Tuple)
                      else [h.type])}


def test_every_raise_reaches_an_exit_code():
    assert unhandled_raises(PACKAGE) == []
    assert caught_names(PACKAGE, "cli", "main") >= MAPPED - {
        "ArgumentTypeError"}
    for (_, _, name), catcher in CAUGHT.items():
        assert name in caught_names(PACKAGE, *catcher)
