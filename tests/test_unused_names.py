"""Every top-level name of the package has a use outside tests.

A name that only tests reference is a second code path kept alive for the
tests alone.  The scan is by name, not by binding: a `def`, `class` or
assigned name at the top of a `src/twoview` module counts as used when some
file under `src/`, `bench/` or `demos/` mentions it outside its own
definition, as a name, an attribute, an import, or a string constant (the
benchmark's tracer patches functions by their names as strings).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "twoview"

# reserved for resuming a run from a checkpoint (ROADMAP item 5)
ALLOWED_UNUSED = {"trainer.optimizer_from_checkpoint"}


def top_level_definitions(tree: ast.Module):
    """(name, node) for each top-level def, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


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
    """`module.name` for each top-level name of `package` that no file under `roots` uses."""
    trees = {path: ast.parse(path.read_text(), str(path)) for root in roots for path in sorted(root.rglob("*.py"))}
    refs = {path: list(references(tree)) for path, tree in trees.items()}
    unused = []
    for module in sorted(package.glob("*.py")):
        for name, node in top_level_definitions(trees[module]):
            used = any(
                ident == name and not (path == module and node.lineno <= line <= node.end_lineno)
                for path, found in refs.items()
                for ident, line in found
            )
            if not used:
                unused.append(f"{module.stem}.{name}")
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
