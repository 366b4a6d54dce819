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

Every default of a public function's or method's parameter is left out by
some package call: a default that every call supplies is a second code path
that only tests take. A function loaded as a value, such as an engine stored
in a table, counts as relying on all its defaults.

Outside ``scene``, which parses them, ``element_efficiency`` and
``phase_lookup_rad`` have one reader: the table of surface-state responses,
through which every engine sees the surface's states.

Every scene names its surface, so no package module compares ``ris`` or
``bs_to_ris`` with ``None``: such a test could only open a second code path
for a scene without one.

Only ``influence`` binds a ``_BLOCK_BYTES``: the grid sweep's one memory
budget, from which every map's block size follows. An engine module with a
budget of its own would be a second block driver.
"""

import ast
import pathlib
import sys

import pytest

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


def none_comparisons(trees: dict[str, ast.Module], attrs: set[str]) -> set[str]:
    """``module:line`` of each comparison of an attribute named in ``attrs`` with ``None``."""
    found: set[str] = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(isinstance(o, ast.Constant) and o.value is None for o in operands) and any(
                        isinstance(o, ast.Attribute) and o.attr in attrs for o in operands):
                    found.add(f"{module}:{node.lineno}")
    return found


def defaulted_parameters(node: ast.FunctionDef, bound: bool) -> dict[str, int | None]:
    """Parameter name -> position in a call (None if keyword-only) of each
    parameter with a default; ``bound`` drops the leading self or cls."""
    args = node.args
    params = [*args.posonlyargs, *args.args]
    first = len(params) - len(args.defaults)
    found = {p.arg: i - bound for i, p in enumerate(params) if i >= first}
    found.update({p.arg: None for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None})
    return found


def _is_static(node: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)


def unused_defaults(trees: dict[str, ast.Module]) -> set[str]:
    """``module.name(parameter)`` for each default of a public function or
    method that no package call leaves out.

    A top-level function is called by its bare name in its own module, by
    the name a relative ``from .mod import`` binds, or as ``mod.name``; a
    method by any call of an attribute of its name. A call with ``*`` or
    ``**`` arguments supplies every parameter.
    """
    defaults = {
        key: defaulted_parameters(node, bound=False)
        for key, node in public_functions(trees).items()
    }
    methods: dict[str, list[str]] = {}
    for key, node in public_methods(trees).items():
        defaults[key] = defaulted_parameters(node, bound=not _is_static(node))
        methods.setdefault(node.name, []).append(key)
    left_out: dict[str, set[str]] = {key: set() for key in defaults}

    for module, tree in trees.items():
        names = {name.split(".", 1)[1]: name for name in defaults if name.count(".") == 1
                 and name.startswith(f"{module}.")}
        module_aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None and alias.name in trees:
                        module_aliases[alias.asname or alias.name] = alias.name
                    elif f"{node.module}.{alias.name}" in defaults:
                        names[alias.asname or alias.name] = f"{node.module}.{alias.name}"

        def targets(expr) -> list[str]:
            if isinstance(expr, ast.Name) and isinstance(expr.ctx, ast.Load):
                return [names[expr.id]] if expr.id in names else []
            if isinstance(expr, ast.Attribute) and isinstance(expr.ctx, ast.Load):
                if isinstance(expr.value, ast.Name) and expr.value.id in module_aliases:
                    key = f"{module_aliases[expr.value.id]}.{expr.attr}"
                    return [key] if key in defaults else []
                return methods.get(expr.attr, [])
            return []

        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        called = {id(call.func) for call in calls}
        for call in calls:
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                    k.arg is None for k in call.keywords):
                continue
            given = {k.arg for k in call.keywords}
            for key in targets(call.func):
                left_out[key].update(
                    name for name, pos in defaults[key].items()
                    if name not in given and (pos is None or pos >= len(call.args)))
        for node in ast.walk(tree):
            if id(node) not in called:
                for key in targets(node):
                    left_out[key].update(defaults[key])
    return {
        f"{key}({name})"
        for key, params in defaults.items()
        for name in params
        if name not in left_out[key]
    }


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


def test_every_default_is_left_out_by_a_package_call():
    assert sorted(unused_defaults(parse_package(PACKAGE))) == [], "defaults only tests rely on"


def test_each_default_rule_counts():
    sources = {
        "a": "def f(x, y=1, *, z=2): pass\n"
             "def g(x=1): pass\n"
             "def h(x=1): pass\n"
             "def k(x=1, y=2): pass\n"
             "def _private(x=1): pass\n"
             "f(0, 1, z=3)\n",
        "b": "from .a import g as renamed, k\n"
             "renamed()\n"
             "k(*args)\n",
        "c": "from . import a\n"
             "table = {'h': a.h}\n",
        "d": "class Thing:\n"
             "    def m(self, x, y=1): pass\n"
             "    @staticmethod\n"
             "    def s(x, y=1): pass\n"
             "    def n(self, x=1): pass\n"
             "def _use(thing):\n"
             "    thing.m(0)\n"
             "    thing.s(0, 1)\n"
             "    thing.n(x=2)\n",
    }
    trees = {name: ast.parse(text) for name, text in sources.items()}
    assert unused_defaults(trees) == {
        "a.f(y)", "a.f(z)", "a.k(x)", "a.k(y)", "d.Thing.s(y)", "d.Thing.n(x)"}


# attribute -> the one package function outside ``scene`` that reads it
SOLE_READERS = {
    "element_efficiency": "beamforming.state_responses",
    "phase_lookup_rad": "beamforming.state_responses",
}


@pytest.mark.parametrize("attr", sorted(SOLE_READERS))
def test_surface_state_fields_are_read_only_by_the_state_table(attr):
    trees = parse_package(PACKAGE)
    del trees["scene"]
    assert attribute_readers(trees, attr) == {SOLE_READERS[attr]}


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


# attributes every scene carries, so no package test of them against None
ALWAYS_SET = {"ris", "bs_to_ris"}


def test_no_module_tests_the_surface_for_none():
    assert sorted(none_comparisons(parse_package(PACKAGE), ALWAYS_SET)) == []


def test_each_none_comparison_rule_counts():
    sources = {
        "a": "def f(s):\n"
             "    if s.ris is None:\n"
             "        return None\n"
             "    return s.ris.element_count is None\n",
        "b": "ok = [None != ch.bs_to_ris, ch.bs_to_ris == 0]\n",
        "c": "x = s.eve is None\n"
             "y = ris is None\n"
             "z = getattr(s, 'ris') is None\n",
    }
    trees = {name: ast.parse(text) for name, text in sources.items()}
    assert none_comparisons(trees, ALWAYS_SET) == {"a:2", "b:1"}


def name_binders(trees: dict[str, ast.Module], name: str) -> set[str]:
    """Modules that store to ``name`` anywhere, at any depth."""
    return {
        module
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Store)
    }


def test_only_the_sweep_binds_a_block_budget():
    assert name_binders(parse_package(PACKAGE), "_BLOCK_BYTES") == {"influence"}


def test_each_binding_rule_counts():
    sources = {
        "a": "_BLOCK_BYTES = 4\n",
        "b": "def f():\n    _BLOCK_BYTES, x = 1, 2\n",
        "c": "from .a import x\nprint(_BLOCK_BYTES)\n",
        "d": "for _BLOCK_BYTES in ():\n    pass\n",
    }
    trees = {name: ast.parse(text) for name, text in sources.items()}
    assert name_binders(trees, "_BLOCK_BYTES") == {"a", "b", "d"}
