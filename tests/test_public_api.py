"""Every public function and method of the package is reached by package code.

A top-level function counts as reached when package code imports it with
a relative ``from .mod import name``, reads it as ``mod.name`` on a
risplan module imported with ``from . import mod``, or loads its bare name
in its own module. A public method or property of a public class counts
as reached when any package module loads an attribute of that name. The
only unreached functions allowed are the deliberate oracles in
``ORACLES``, and each of them says so in its docstring; no method is
exempt. Anything else that only tests call is dead weight in the public
API.
"""

import ast
import pathlib
import re

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "risplan"

ORACLES = frozenset({
    "linkmetrics.equivalent_gain",
    "beamforming.codebook_sweep",
    "beamforming.optimal_phases_continuous",
    "localization.ml_position_rmse",
    "secrecy.optimize_sse",
})


def parse_package(directory: pathlib.Path) -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(directory.glob("*.py"))
    }


def public_functions(trees: dict[str, ast.Module]) -> dict[str, ast.FunctionDef]:
    return {
        f"{module}.{node.name}": node
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    }


def public_methods(trees: dict[str, ast.Module]) -> dict[str, ast.FunctionDef]:
    return {
        f"{module}.{cls.name}.{node.name}": node
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    }


def loaded_attributes(trees: dict[str, ast.Module]) -> set[str]:
    return {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def reached_names(trees: dict[str, ast.Module]) -> set[str]:
    reached: set[str] = set()
    for module, tree in trees.items():
        module_aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            for alias in node.names:
                if node.module is not None:
                    reached.add(f"{node.module}.{alias.name}")
                elif alias.name in trees:
                    module_aliases[alias.asname or alias.name] = alias.name
                else:
                    reached.add(f"__init__.{alias.name}")
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in module_aliases
            ):
                reached.add(f"{module_aliases[node.value.id]}.{node.attr}")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reached.add(f"{module}.{node.id}")
    return reached


def unreached(trees: dict[str, ast.Module]) -> set[str]:
    loaded = loaded_attributes(trees)
    methods = {name for name in public_methods(trees) if name.rsplit(".", 1)[1] not in loaded}
    return (set(public_functions(trees)) - reached_names(trees)) | methods


def test_only_the_oracles_are_unreached():
    left = unreached(parse_package(PACKAGE))
    assert sorted(left - ORACLES) == [], "public functions only tests call"
    assert sorted(ORACLES - left) == [], "oracles now reached by package code"


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracle_exists_and_says_so(name):
    functions = public_functions(parse_package(PACKAGE))
    assert name in functions
    doc = " ".join((ast.get_docstring(functions[name]) or "").split())
    assert re.search(r"\bkept as\b[^.]*\boracle\b", doc, re.IGNORECASE), doc


def test_each_reach_rule_counts():
    sources = {
        "a": "def imported(): pass\n"
             "def attribute(): pass\n"
             "def local(): pass\n"
             "def orphan(): pass\n"
             "def _private(): pass\n"
             "local()\n",
        "b": "from .a import imported\n",
        "c": "from . import a as mod\nmod.attribute()\n",
        "d": "class Thing:\n"
             "    def called(self): pass\n"
             "    @property\n"
             "    def read(self): pass\n"
             "    def lonely(self): pass\n"
             "    def _private(self): pass\n"
             "class _Hidden:\n"
             "    def lonely(self): pass\n"
             "def _use(thing):\n"
             "    thing.called()\n"
             "    return thing.read\n",
    }
    trees = {name: ast.parse(text) for name, text in sources.items()}
    assert unreached(trees) == {"a.orphan", "d.Thing.lonely"}
