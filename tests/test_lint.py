"""Static checks on ``src/mxpbench``, built on ``ast``: no unused import and
no private module-level name that no module of the package references."""

import ast
from pathlib import Path

import mxpbench

_SRC = Path(mxpbench.__file__).resolve().parent
_TREES = {p.name: (p.read_text().splitlines(), ast.parse(p.read_text()))
          for p in sorted(_SRC.glob("*.py"))}


def _all_names(tree):
    """The strings listed in a module-level ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def _references(tree):
    """Every name a module reads: loaded names, attribute names and the
    names it imports from another module."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(a.name for a in node.names)
    return refs


def test_no_unused_imports():
    unused = []
    for name, (lines, tree) in _TREES.items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= _all_names(tree)
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"
                    or "noqa: F401" in lines[node.lineno - 1]):
                continue
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in used:
                    unused.append(f"{name}:{node.lineno} {bound}")
    assert not unused, unused


def test_every_private_module_level_name_is_referenced():
    refs = set().union(*(_references(tree) for _, tree in _TREES.values()))
    orphans = []
    for name, (_, tree) in _TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            orphans += [f"{name}:{node.lineno} {d}" for d in defined
                        if d.startswith("_") and not d.startswith("__")
                        and d not in refs]
    assert not orphans, orphans
