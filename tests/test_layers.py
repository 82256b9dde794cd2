"""The package's modules form one import order, read from their source.

The analysis layer (errors, model, equilibria, qualitative) runs on the
standard library, the rest on it and numpy alone, and no module imports
one that comes after it in ORDER.  test_analysis_runs_without_numpy
checks the first rule by running the analysis in a fresh interpreter, but
it sees only the imports on the paths it runs: a function-level import on
a branch it never takes goes unseen, and that is how model.vector_field
once imported ode_sim.  So every import statement of every module is read
here with ast, function bodies included, whether or not anything runs it.

The input rules are read the same way: a rule that more than one function
checks is a `_check_*` function of model, written once, and cli reads no
private name of the simulation layers, so it reaches each rule in model.
"""

import ast
import sys
from importlib import resources

import pytest

# "__init__" is the package itself: it imports the analysis layer eagerly
# and the simulation layer on first access, so only cli may import it
ORDER = ("errors", "model", "equilibria", "qualitative", "ode_sim",
         "sde_sim", "__init__", "cli")
ANALYSIS = ORDER[:4]


def source(module):
    return resources.files("lglab").joinpath(f"{module}.py").read_text()


def imports(module):
    """(package modules, outside top-level modules) that module imports."""
    inside, outside = set(), set()
    for node in ast.walk(ast.parse(source(module))):
        if isinstance(node, ast.Import):
            pairs = [(0, alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            pairs = [(node.level, node.module, alias.name)
                     for alias in node.names]
        else:
            continue
        for level, name, member in pairs:
            assert level <= 1, f"{module} imports from above the package"
            parts = name.split(".") if name else []
            if level == 0 and parts[0] != "lglab":
                outside.add(parts[0])
                continue
            sub = parts[1:] if level == 0 else parts
            if sub:
                inside.add(sub[0])
            else:  # from . import member: a module, or a name of the package
                inside.add(member if member in ORDER else "__init__")
    return inside, outside


def test_order_covers_every_module():
    names = {f.name[:-3] for f in resources.files("lglab").iterdir()
             if f.name.endswith(".py")}
    assert names == set(ORDER)


@pytest.mark.parametrize("module", ORDER)
def test_imports_only_earlier_modules(module):
    inside, _ = imports(module)
    later = ORDER[ORDER.index(module):]
    assert sorted(inside.intersection(later)) == []


@pytest.mark.parametrize("module", ANALYSIS)
def test_analysis_layer_imports_only_the_standard_library(module):
    _, outside = imports(module)
    assert sorted(outside - sys.stdlib_module_names) == []


@pytest.mark.parametrize("module", ORDER[len(ANALYSIS):])
def test_simulation_layer_imports_only_numpy_and_the_standard_library(
        module):
    # numpy is the package's one runtime dependency (pyproject.toml)
    _, outside = imports(module)
    assert sorted(outside - sys.stdlib_module_names - {"numpy"}) == []


@pytest.mark.parametrize("module", [m for m in ORDER if m != "model"])
def test_rules_are_defined_in_model(module):
    defined = [node.name for node in ast.walk(ast.parse(source(module)))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    assert [name for name in defined if name.startswith("_check_")] == []


def test_cli_reaches_no_private_name_of_the_simulation_layers():
    reached = []
    for node in ast.walk(ast.parse(source("cli"))):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in ("ode_sim", "sde_sim")):
            reached.append(f"{node.value.id}.{node.attr}")
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").endswith(("ode_sim", "sde_sim"))):
            reached += [f"{node.module}.{a.name}" for a in node.names]
    assert sorted(n for n in reached if n.split(".")[-1].startswith("_")) == []


def test_unknown_scheme_is_written_once():
    assert sum(source(m).count("unknown scheme") for m in ORDER) == 1
