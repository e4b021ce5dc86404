"""Every top-level name, method, attribute and dataclass field of the package
has a use outside tests.

A name that only tests reference is a second code path kept alive for the
tests alone.  The scan checks:
- each `def`, `class` or assigned name at the top of a `src/twoview` module;
- each non-dunder `def` in one of its class bodies;
- each non-dunder name assigned in such a class body (class attributes and
  dataclass fields) or through `self.x = ...` in its methods.

Each counts as used when some file under `src/`, `bench/` or `demos/` reads
it outside its own definition: as a loaded name or attribute, an import, or
a string constant (the benchmark's tracer patches functions by their names
as strings, and `trainer._SCALARS` names `Checkpoint` fields).  An
assignment to an attribute is not a read, and neither is a name listed in
`__slots__`.

The scan is by name, not by binding, so a name that some other object
shares can hide: `Tensor.size` went unflagged for as long as it lived
because numpy arrays have a `.size` that the package reads.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "twoview"


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def assigned_names(node):
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    for target in targets:
        for name in ast.walk(target):
            if isinstance(name, ast.Name):
                yield name.id


def class_members(cls: ast.ClassDef):
    """(qualified name, name, node) for each non-dunder method, class-body
    name and `self.x` attribute of `cls`; an attribute assigned in several
    places is defined by its first assignment."""
    attributes = {}
    for member in cls.body:
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not is_dunder(member.name):
                yield f"{cls.name}.{member.name}", member.name, member
            for node in ast.walk(member):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    attributes.setdefault(node.attr, node)
        elif isinstance(member, (ast.Assign, ast.AnnAssign)):
            for name in assigned_names(member):
                attributes.setdefault(name, member)
    for name, node in attributes.items():
        if not is_dunder(name):
            yield f"{cls.name}.{name}", name, node


def top_level_definitions(tree: ast.Module):
    """(qualified name, name, node) for each top-level def, class and
    assigned name, and each member `class_members` finds in a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            yield from class_members(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for name in assigned_names(node):
                yield name, name, node


def references(tree: ast.AST):
    """(identifier, line) for each loaded name and attribute, import alias and
    string constant, leaving out the names a `__slots__` lists."""
    slots = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and "__slots__" in assigned_names(node):
            slots.update(id(sub) for sub in ast.walk(node))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in slots:
            yield node.value, node.lineno


def unused_names(package: Path, roots) -> list[str]:
    """`module.name` for each top-level name, and `module.Class.member` for
    each class member, of `package` that no file under `roots` reads."""
    trees = {path: ast.parse(path.read_text(), str(path)) for root in roots for path in sorted(root.rglob("*.py"))}
    refs = {path: list(references(tree)) for path, tree in trees.items()}
    unused = []
    for module in sorted(package.glob("*.py")):
        for qualname, name, node in top_level_definitions(trees[module]):
            used = any(
                ident == name and not (path == module and node.lineno <= line <= node.end_lineno)
                for path, found in refs.items()
                for ident, line in found
            )
            if not used:
                unused.append(f"{module.stem}.{qualname}")
    return unused


def test_every_package_name_is_used_outside_tests():
    assert unused_names(PACKAGE, [ROOT / "src", ROOT / "bench", ROOT / "demos"]) == []


def test_scan_reports_an_unused_def(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "def used():\n    return 1\n\n\ndef orphan():\n    return orphan()\n\n\nVALUE = used()\n"
    )
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "patch.py").write_text("import pkg.mod\nsetattr(pkg.mod, 'VALUE', 2)\n")
    assert unused_names(package, [tmp_path / "src", tmp_path / "bench"]) == ["mod.orphan"]


def test_scan_reports_an_unused_method(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "class Box:\n"
        "    def __len__(self):\n        return 0\n\n"
        "    @property\n    def size(self):\n        return self.orphan_prop\n\n"
        "    @property\n    def orphan_prop(self):\n        return 1\n\n"
        "    def orphan(self):\n        return self.orphan()\n\n\n"
        "print(Box().size)\n"
    )
    assert unused_names(package, [tmp_path / "src"]) == ["mod.Box.orphan"]
    (package / "mod.py").write_text((package / "mod.py").read_text().replace("return self.orphan_prop", "return 2"))
    assert unused_names(package, [tmp_path / "src"]) == ["mod.Box.orphan_prop", "mod.Box.orphan"]


def test_scan_reports_unread_attributes_and_fields(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass\nclass Record:\n"
        "    read: int\n    by_string: int\n    orphan_field: int\n\n\n"
        "class Stopper:\n"
        "    __slots__ = ('best', 'orphan_slot')\n\n"
        "    def __init__(self):\n"
        "        self.best = 0\n        self.orphan_slot = 0\n\n"
        "    def update(self, value):\n"
        "        self.best = max(self.best, value)\n\n\n"
        "r = Record(1, 2, 3)\n"
        "print(r.read, getattr(r, 'by_string'), Stopper().update(1))\n"
    )
    # written by keyword and by `self.x =` only: a store is not a read
    assert unused_names(package, [tmp_path / "src"]) == ["mod.Record.orphan_field", "mod.Stopper.orphan_slot"]
