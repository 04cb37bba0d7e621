"""Guard against library code that only tests call.

Walks ``src/ulmkit`` with ``ast`` and requires every function, method and
class defined there (dunders aside) to be referenced somewhere in ``src/``
outside its own definition. References are matched by name, not resolved by
scope, so a dead definition that shares its name with a live one can slip
through; a live definition is never reported.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ulmkit"

# Called from outside the package only: the console-script entry point.
ENTRY_POINTS = {"cli.main"}


def _scan():
    """(qualified name, name, module, first line, last line) per definition,
    and (module, name, line) per name or attribute read."""
    defs, refs = [], []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    qual = f"{prefix}.{child.name}"
                    defs.append((qual, child.name, module, child.lineno, child.end_lineno))
                    visit(child, qual)
                else:
                    visit(child, prefix)

        visit(tree, module)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                refs.append((module, node.attr, node.lineno))
    return defs, refs


def test_every_definition_is_referenced_in_src():
    defs, refs = _scan()
    assert len(defs) > 100, "scan found too few definitions; is SRC right?"
    unreferenced = []
    for qual, name, module, first, last in defs:
        if name.startswith("__") and name.endswith("__") or qual in ENTRY_POINTS:
            continue
        if not any(ref_name == name and not (ref_module == module and first <= line <= last)
                   for ref_module, ref_name, line in refs):
            unreferenced.append(qual)
    assert not unreferenced, f"defined in src/ but referenced only outside it: {unreferenced}"
