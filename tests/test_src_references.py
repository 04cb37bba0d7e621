"""Guard against library code that only tests call.

Walks ``src/ulmkit`` with ``ast`` and requires every function, method and
class defined there (dunders aside), and every UPPER_CASE constant bound at
module level, to be referenced somewhere in ``src/`` outside its own
definition. A module-level definition of module M counts as
referenced only by a bare name inside M, by ``X.name`` where an import binds
X to M, or by importing the name from M, so ``np.mean`` cannot keep a
``tensor.mean`` alive. Methods and nested definitions are matched by name
alone, since the type behind ``obj.name`` is not resolved: a dead method that
shares its name with a live one can slip through.

Likewise every attribute assigned on ``self`` in ``src/``, and every field
declared in the body of a ``@dataclass``, must be read there as
``obj.name``, again matched by name alone.
"""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ulmkit"
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")

# Called from outside the package only: the console-script entry point.
ENTRY_POINTS = {"cli.main"}


def _scan(src=SRC):
    """(qualified name, name, module, first line, last line) per definition,
    and (module, target module or None, name, line) per name read, attribute
    read or name imported; the target is the package module the reference
    resolves to, None where it is not resolved."""
    defs, refs = [], []
    for path in sorted(src.glob("*.py")):
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
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for n in (n for t in targets for n in ast.walk(t)):
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store) \
                            and CONSTANT.fullmatch(n.id):
                        defs.append((f"{module}.{n.id}", n.id, module, node.lineno, node.end_lineno))
        aliases = {}  # local name -> the package module an import binds it to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:  # src/ imports relatively
                for alias in node.names:
                    if node.module:
                        refs.append((module, node.module, alias.name, node.lineno))
                    else:  # from . import tensor as T
                        aliases[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.append((module, module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                owner = node.value.id if isinstance(node.value, ast.Name) else None
                refs.append((module, aliases.get(owner), node.attr, node.lineno))
    return defs, refs


def _unreferenced(src=SRC):
    defs, refs = _scan(src)
    unreferenced = []
    for qual, name, module, first, last in defs:
        if name.startswith("__") and name.endswith("__") or qual in ENTRY_POINTS:
            continue
        module_level = qual == f"{module}.{name}"
        if not any(ref_name == name and (not module_level or target == module)
                   and not (ref_module == module and first <= line <= last)
                   for ref_module, target, ref_name, line in refs):
            unreferenced.append(qual)
    return defs, unreferenced


def _is_dataclass(node) -> bool:
    """Whether a class definition carries ``@dataclass``, called or not,
    by a bare name or as ``dataclasses.dataclass``."""
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if (d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)) == "dataclass":
            return True
    return False


def _unread_attributes(src=SRC):
    """``module:line self.name`` per attribute assigned on ``self``, and
    ``module:line Class.name`` per field declared in a dataclass body, whose
    name no attribute read in src/ uses."""
    stores, reads = [], set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                stores += [f"{path.stem}:{n.lineno} {node.name}.{n.target.id}" for n in node.body
                           if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node.value, ast.Name) and node.value.id == "self":
                stores.append(f"{path.stem}:{node.lineno} self.{node.attr}")
    return [s for s in stores if s.rsplit(".", 1)[1] not in reads]


def test_every_definition_is_referenced_in_src():
    defs, unreferenced = _unreferenced()
    assert len(defs) > 100, "scan found too few definitions; is SRC right?"
    assert not unreferenced, f"defined in src/ but referenced only outside it: {unreferenced}"


def test_scan_resolves_module_level_names(tmp_path):
    (tmp_path / "tensor.py").write_text(
        "def mean(x):\n    return x\n\n\ndef add(a, b):\n    return a\n\n\n"
        "def lstm(x):\n    return x\n\n\nclass Tensor:\n    def item(self):\n        return 0\n")
    (tmp_path / "model.py").write_text(
        "import numpy as np\n\nfrom . import tensor as T\nfrom .tensor import Tensor\n\n"
        "y = np.mean([1.0])  # numpy's mean, not tensor.mean\n"
        "z = T.add(Tensor(), lstm).item()  # a bare lstm here is model's own name\n")
    _, unreferenced = _unreferenced(tmp_path)
    assert unreferenced == ["tensor.mean", "tensor.lstm"]


def test_every_attribute_set_on_self_is_read_in_src():
    unread = _unread_attributes()
    assert not unread, f"set on self or declared as a field in src/, read only outside: {unread}"


def test_scan_finds_unread_attributes(tmp_path):
    (tmp_path / "model.py").write_text(
        "class Layer:\n    def __init__(self, n):\n        self.n = n\n"
        "        self.size = 2 * n\n        self.size += 1\n")
    (tmp_path / "train.py").write_text("def width(layer):\n    return layer.size\n")
    assert _unread_attributes(tmp_path) == ["model:3 self.n"]


def test_scan_finds_unread_dataclass_fields(tmp_path):
    (tmp_path / "evalbench.py").write_text(
        "import dataclasses\nfrom dataclasses import dataclass, field\n\n\n"
        "@dataclass\nclass Row:\n    n: int\n    accs: list = field(default_factory=list)\n"
        "    HEADER = 'n'\n\n\n@dataclasses.dataclass(frozen=True)\nclass Pair:\n"
        "    a: int\n    b: int\n\n\nclass Plain:\n    c: int\n")
    (tmp_path / "cli.py").write_text("def show(row, pair):\n    return row.n, pair.b\n")
    assert _unread_attributes(tmp_path) == ["evalbench:8 Row.accs", "evalbench:14 Pair.a"]


def test_scan_finds_unread_module_constants(tmp_path):
    (tmp_path / "textpipe.py").write_text(
        "PAD_ID = 1\nBOS_ID: int = 2\nUNK_ID, _LIMIT = 0, 9\nlower = 3\n\n\n"
        "def pad():\n    return PAD_ID + _LIMIT\n")
    (tmp_path / "train.py").write_text(
        "import numpy as np\n\nfrom . import textpipe as tp\nfrom .textpipe import pad\n\n"
        "UNK_ID = 5\nx = tp.UNK_ID + pad() + UNK_ID + np.BOS_ID  # numpy's, not textpipe's\n")
    _, unreferenced = _unreferenced(tmp_path)
    assert unreferenced == ["textpipe.BOS_ID"]
