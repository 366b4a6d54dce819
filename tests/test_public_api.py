"""The package is what the commands run, on numpy and the standard library alone.

Every public function and method of the package is reached by package code.
A top-level function counts as reached when package code imports it with
a relative ``from .mod import name``, reads it as ``mod.name`` on a
risplan module imported with ``from . import mod``, or loads its bare name
in its own module. A public method or property of a public class counts
as reached when any package module loads an attribute of that name. No
function or method is exempt: a second code path that only tests call
belongs in a ``tests/*_oracle.py`` module.

No package module takes another module's private name, by import or as
``mod._name``: what one module shares with another is public, and so falls
under the reach rule.

Outside ``scene``, which parses it, ``element_efficiency`` has one reader:
the table of surface-state responses, through which every engine sees it.
"""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "risplan"

RUNTIME_DEPENDENCIES = frozenset({"numpy"})


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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(trees: dict[str, ast.Module]) -> set[str]:
    """``module: owner.name`` for each private name a module takes from another module."""
    found: set[str] = set()
    for module, tree in trees.items():
        module_aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            for alias in node.names:
                if node.module is None and alias.name in trees:
                    module_aliases[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    found.add(f"{module}: {node.module or '__init__'}.{alias.name}")
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in module_aliases
                and _private(node.attr)
            ):
                found.add(f"{module}: {module_aliases[node.value.id]}.{node.attr}")
    return found


def absolute_imports(trees: dict[str, ast.Module]) -> set[str]:
    """Top-level names of every absolute import, at any depth of any module."""
    names: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def attribute_readers(trees: dict[str, ast.Module], attr: str) -> set[str]:
    """``module.name`` of each top-level function or class that loads ``attr``;
    ``module`` alone for a load outside them."""
    readers: set[str] = set()
    for module, tree in trees.items():
        for node in tree.body:
            if any(isinstance(sub, ast.Attribute) and sub.attr == attr
                   and isinstance(sub.ctx, ast.Load) for sub in ast.walk(node)):
                scoped = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                readers.add(f"{module}.{node.name}" if scoped else module)
    return readers


def test_every_public_function_and_method_is_reached():
    assert sorted(unreached(parse_package(PACKAGE))) == [], "public names only tests call"


def test_no_module_takes_another_modules_private_name():
    assert sorted(private_imports(parse_package(PACKAGE))) == []


def test_each_private_import_rule_counts():
    sources = {
        "a": "def _helper(): pass\n_TABLE = ()\ndef shared(): pass\n",
        "b": "from .a import _helper, shared\n",
        "c": "from . import a as mod\nmod._TABLE\nmod.shared()\n",
        "d": "from . import __version__\n_own = 1\n_own\n",
    }
    trees = {name: ast.parse(text) for name, text in sources.items()}
    assert private_imports(trees) == {"b: a._helper", "c: a._TABLE"}


def test_runtime_imports_are_stdlib_or_numpy():
    imported = absolute_imports(parse_package(PACKAGE))
    assert "numpy" in imported
    assert sorted(imported - set(sys.stdlib_module_names) - RUNTIME_DEPENDENCIES) == []


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


def test_element_efficiency_is_read_only_by_the_state_table():
    trees = parse_package(PACKAGE)
    del trees["scene"]
    assert attribute_readers(trees, "element_efficiency") == {"beamforming.state_responses"}


def test_each_attribute_reader_counts():
    sources = {
        "a": "def f(s):\n"
             "    return s.ris.element_efficiency\n"
             "class C:\n"
             "    def g(self, s):\n"
             "        s.element_efficiency = 1\n"
             "    def h(self, s):\n"
             "        return [s.element_efficiency]\n",
        "b": "x.element_efficiency\n",
        "c": "def other(s):\n    return s.efficiency\n",
    }
    trees = {name: ast.parse(text) for name, text in sources.items()}
    assert attribute_readers(trees, "element_efficiency") == {"a.f", "a.C", "b"}
