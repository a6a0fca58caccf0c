"""The package root is the README's Library example and nothing more: every
other name is imported from the module that defines it."""

import ast
import types
from pathlib import Path

import platoon_asmc

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first python block under "## Library" in README.md, the block
    that CI runs."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("## Library")
    opening = lines.index("```python", start) + 1
    return "\n".join(lines[opening:lines.index("```", opening)])


def test_root_exports_what_the_readme_imports_from_it():
    imported = [alias.name for node in ast.walk(ast.parse(library_example()))
                if isinstance(node, ast.ImportFrom)
                and node.module == "platoon_asmc" and node.level == 0
                for alias in node.names]
    assert imported
    assert sorted(platoon_asmc.__all__) == sorted(imported)


def test_root_exposes_nothing_else_but_its_submodules():
    for name, value in vars(platoon_asmc).items():
        if not name.startswith("_") and name not in platoon_asmc.__all__:
            assert isinstance(value, types.ModuleType), name
            assert value.__name__ == f"platoon_asmc.{name}"
