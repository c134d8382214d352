"""The package's layer order: each module imports only the modules listed before it."""

import ast
from pathlib import Path

import alskd

PACKAGE = Path(alskd.__file__).parent

# Lowest first. ``__init__`` may import any of them.
LAYERS = ("artifacts", "probs", "data", "models", "metrics", "losses", "registry",
          "calibration", "config", "gradlab", "trainer", "cli")


def package_imports(tree: ast.AST) -> set[str]:
    """The package modules that ``tree`` imports anywhere, function bodies included;
    an import of the package itself counts as ``__init__``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = f"alskd.{node.module or ''}".rstrip(".") if node.level else node.module
            # ``from alskd import x`` and ``from . import x`` name the module x
            names = ([f"alskd.{alias.name}" for alias in node.names] if module == "alskd"
                     else [module])
        else:
            continue
        found |= {(name.split(".") + ["__init__"])[1] for name in names
                  if name.split(".")[0] == "alskd"}
    return found


def test_every_module_imports_only_the_modules_below_it():
    assert {path.stem for path in PACKAGE.glob("*.py")} == {"__init__", *LAYERS}
    above = {}
    for rank, name in enumerate(LAYERS):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(), filename=name)
        wrong = package_imports(tree) - set(LAYERS[:rank])
        if wrong:
            above[name] = sorted(wrong)
    assert above == {}


def test_relative_absolute_and_function_local_imports_all_count():
    source = ("from .data import Split\n"
              "from . import losses, probs\n"
              "import alskd.registry\n"
              "from alskd.models import build_model\n"
              "from alskd import metrics\n"
              "import numpy\n"
              "import alskd\n"
              "def late():\n"
              "    from .trainer import train\n")
    assert package_imports(ast.parse(source)) == {"data", "losses", "probs", "registry", "models",
                                                  "metrics", "trainer", "__init__"}
