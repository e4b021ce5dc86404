"""Every top-level name, method and property of the package has a use
outside tests.

A name that only tests reference is a second code path kept alive for the
tests alone.  The scan is by name, not by binding: a `def`, `class` or
assigned name at the top of a `src/twoview` module, or a `def` in one of its
class bodies, counts as used when some file under `src/`, `bench/` or
`demos/` mentions it outside its own definition, as a name, an attribute, an
import, or a string constant (the benchmark's tracer patches functions by
their names as strings).  Dunder methods are left out, since Python calls
them implicitly, and so are dataclass fields, which callers set by keyword.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "twoview"

# reserved for resuming a run from a checkpoint (ROADMAP item 5)
ALLOWED_UNUSED = {"trainer.optimizer_from_checkpoint"}


def top_level_definitions(tree: ast.Module):
    """(qualified name, name, node) for each top-level def, class and
    assigned name, and each non-dunder def in a top-level class body."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{node.name}.{member.name}", member.name, member
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, name.id, node


def references(tree: ast.AST):
    """(identifier, line) for each name, attribute, import alias and string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def unused_names(package: Path, roots) -> list[str]:
    """`module.name` for each top-level name, and `module.Class.method` for
    each method, of `package` that no file under `roots` uses."""
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
    unused = unused_names(PACKAGE, [ROOT / "src", ROOT / "bench", ROOT / "demos"])
    # an allowed name that gains a use leaves the list too
    assert unused == sorted(ALLOWED_UNUSED)


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
