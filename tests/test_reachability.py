"""Every function, class and method in src/corrml is reachable from the
program: from a module's top-level code, from the benchmark in bench/, or
from a name tests/test_acceptance.py imports, through a chain of references
that starts there. Code that only other tests reach belongs in tests/.

The check reads the source with `ast` and resolves names by spelling only.
A module-level function or class is referenced by a Name, an Attribute or an
import of its name; a method only by an Attribute. A reference counts where
it is made: at a module's top level, or inside a definition that is itself
reached, so a reference inside a definition's own body never reaches it. A
method overriding a base-class method (argparse's `error`, say) is called
by the base class, and is exempt.
"""

import ast
import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "corrml")


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _refs(root, skip=(), strings=False):
    """(Name ids, Attribute names, imported names) in `root` outside the
    subtrees in `skip`. With `strings`, identifier string constants count as
    Attribute names: the benchmark wraps entry points by attribute name."""
    names, attrs, imports = set(), set(), set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imports.update(alias.name.split(".")[-1] for alias in node.names)
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            attrs.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names, attrs, imports


def _definitions():
    """The parsed modules, and (label, name, is_method, node, exempt) for
    every module-level function and class and every non-dunder method."""
    modules, defs = {}, []
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        mod = fname[:-3]
        tree = modules[mod] = _parse(os.path.join(SRC, fname))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs.append((f"{mod}.{node.name}", node.name, False, node, False))
            if isinstance(node, ast.ClassDef):
                cls = getattr(importlib.import_module(f"corrml.{mod}"), node.name)
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        override = any(item.name in vars(base) for base in cls.__mro__[1:])
                        defs.append((f"{mod}.{node.name}.{item.name}", item.name, True, item,
                                     override))
    return modules, defs


def unreached() -> list[str]:
    """Labels of the definitions no chain of references reaches."""
    modules, defs = _definitions()
    bodies = {node for _, _, _, node, _ in defs}
    # references made at a module's top level, in bench/, and by the
    # acceptance tests' imports are live from the start
    live = [_refs(tree, bodies) for tree in modules.values()]
    for base, _, files in os.walk(os.path.join(ROOT, "bench")):
        live += [_refs(_parse(os.path.join(base, f)), strings=True)
                 for f in files if f.endswith(".py")]
    acceptance = _parse(os.path.join(ROOT, "tests", "test_acceptance.py"))
    live.append((set(), set(), {alias.name for node in ast.walk(acceptance)
                                if isinstance(node, ast.ImportFrom)
                                and (node.module or "").startswith("corrml")
                                for alias in node.names}))
    reached, new = set(), {label for label, _, _, _, exempt in defs if exempt}
    while True:
        reached |= new
        # a newly reached definition makes the references in its own body
        # (outside its methods, which are reached on their own) live
        live += [_refs(node, bodies - {node}) for label, _, _, node, _ in defs if label in new]
        new = {label for label, name, is_method, _, _ in defs if label not in reached
               and any(name in attrs or (not is_method and (name in names or name in imports))
                       for names, attrs, imports in live)}
        if not new:
            return sorted(label for label, *_ in defs if label not in reached)


def test_every_definition_is_reached_by_the_program():
    missing = unreached()
    assert not missing, f"nothing but other tests reaches: {', '.join(missing)}"
