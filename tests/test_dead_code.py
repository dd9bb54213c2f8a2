"""The package carries no dead names: every import is used, and every
private top-level function, class or assigned name is referenced
somewhere in it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fptcert"


def _trees():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sources}


def _references(node):
    """Every name read below ``node``: bare names and attribute names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_import_is_used():
    unused = []
    for name, tree in _trees().items():
        used = set(_references(tree))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                # the package's __init__ re-exports its public imports
                if name == "__init__.py" and not bound.startswith("_"):
                    continue
                if bound not in used:
                    unused.append("%s:%d imports %s" % (name, node.lineno, bound))
    assert unused == []


def test_every_private_definition_is_referenced():
    trees = _trees()
    # the names each top-level statement of the package reads
    reads = [(top, set(_references(top))) for tree in trees.values() for top in tree.body]
    unreferenced = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            private = node.name.startswith("_") and not node.name.startswith("__")
            # a decorator may register the definition (the CLI's _cmd_* handlers)
            if not private or node.decorator_list:
                continue
            if not any(node.name in names for top, names in reads if top is not node):
                unreferenced.append("%s:%d defines %s" % (name, node.lineno, node.name))
    assert unreferenced == []


def test_every_private_assignment_is_read():
    trees = _trees()
    reads = [(top, set(_references(top))) for tree in trees.values() for top in tree.body]
    unread = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.Assign):
                continue
            # every name the statement binds, tuple targets included
            bound = [sub.id for target in node.targets for sub in ast.walk(target)
                     if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)]
            for var in bound:
                if not var.startswith("_") or var.startswith("__"):
                    continue
                if not any(var in names for top, names in reads if top is not node):
                    unread.append("%s:%d assigns %s" % (name, node.lineno, var))
    assert unread == []


def test_only_the_package_init_has_an_export_list():
    # the package's __init__ lists every public name once
    exporting = [
        "%s:%d assigns __all__" % (name, sub.lineno)
        for name, tree in _trees().items() if name != "__init__.py"
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Name) and sub.id == "__all__" and isinstance(sub.ctx, ast.Store)
    ]
    assert exporting == []
