"""The package exports only names that something documented or shipped uses,
and neither imports nor loads any of scipy."""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import heatlab

ROOT = Path(__file__).resolve().parents[1]

# returned by the entry points rather than called on their own
RESULT_TYPES = {
    "AsymptoticReport",
    "BoundCheckReport",
    "CovarianceProfile",
    "HeatContentResult",
    "McEstimate",
    "ScalingExponents",
    "StableDensity",
}


def _identifiers(path):
    """Every name a module reads, imports or looks up as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def _readme_entry_points():
    """Words inside backticks in the README's "Key entry points" list."""
    readme = (ROOT / "README.md").read_text()
    start = readme.index("Key entry points")
    section = readme[start : readme.index("\n## ", start)]
    return set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]+)`", section))))


def test_every_export_is_used_by_the_cli_the_battery_or_the_readme():
    used = _readme_entry_points()
    for module in ("cli.py", "acceptance.py"):
        used |= _identifiers(ROOT / "src" / "heatlab" / module)
    orphans = []
    for name in heatlab.__all__:
        obj = getattr(heatlab, name)
        exempt = (
            inspect.ismodule(obj)
            or name in RESULT_TYPES
            or (isinstance(obj, type) and issubclass(obj, BaseException))
        )
        if not exempt and name not in used:
            orphans.append(name)
    assert orphans == []


def test_no_module_imports_scipy():
    # every integral runs on the package's own Gauss-Legendre panels, the
    # stable table's spline on its own tridiagonal solve, and the special
    # functions in heatlab._special on numpy and math
    offenders = []
    for path in sorted((ROOT / "src" / "heatlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [(path.name, n) for n in names if n == "scipy" or n.startswith("scipy.")]
    assert offenders == []


def test_cli_import_loads_no_scipy_module():
    # a fresh interpreter, so that no other test's imports are counted
    code = "import sys, heatlab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
