"""The package is layered: each module imports tward modules only at its top
level, and only from modules earlier in LAYERS."""
import ast
from pathlib import Path

import tward

LAYERS = ("errors", "tables", "perms", "groups", "construct", "braidings", "search", "cli")
# the package facade and the entry point sit above every layer
TOP = ("__init__", "__main__")
SRC = Path(tward.__file__).parent


def _tward_imports(node):
    """Names of the tward modules an import statement imports from."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("tward.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 0:
        module = node.module or ""
        if module == "tward":
            return [a.name for a in node.names]
        return [module.split(".")[1]] if module.startswith("tward.") else []
    if node.module:
        return [node.module.split(".")[0]]
    return [a.name for a in node.names]


def _violations(path: Path) -> list[str]:
    name = path.stem
    rank = len(LAYERS) if name in TOP else LAYERS.index(name)
    tree = ast.parse(path.read_text())
    top_level = set(map(id, tree.body))
    found = []
    for node in ast.walk(tree):
        for target in _tward_imports(node):
            where = f"{path.name}:{node.lineno} -> {target}"
            if id(node) not in top_level:
                found.append(f"{where}: not at module top level")
            if target not in LAYERS or LAYERS.index(target) >= rank:
                found.append(f"{where}: not from an earlier layer")
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in SRC.glob("*.py")}
    assert modules == set(LAYERS) | set(TOP)


def test_imports_follow_the_layers():
    found = [v for path in sorted(SRC.glob("*.py")) for v in _violations(path)]
    assert not found, "\n".join(found)
