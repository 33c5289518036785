import ast
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _package_imports():
    """(file:line, dotted module name) for every import in ``src/pathminer``."""
    for path in sorted((ROOT / "src" / "pathminer").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                names += [f"{node.module}.{alias.name}" for alias in node.names if node.module]
            else:
                continue
            for name in names:
                yield f"{path.name}:{node.lineno}", name


def test_no_module_of_the_package_imports_scipy():
    # scipy is a test-only oracle; the program must run without it
    offenders = [where for where, name in _package_imports() if name.split(".")[0] == "scipy"]
    assert offenders == []


def test_no_module_of_the_package_imports_element_tree():
    # XES has one path, expat; the element-tree reader and writer live on
    # only as the test oracle
    offenders = [where for where, name in _package_imports()
                 if name == "xml.etree" or name.startswith("xml.etree.")]
    assert offenders == []


def test_scipy_is_only_a_test_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert not any(dep.startswith("scipy") for dep in project["dependencies"])
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


def test_every_public_name_resolves_from_the_package_root():
    import pathminer

    assert pathminer.__all__
    assert [name for name in pathminer.__all__ if not hasattr(pathminer, name)] == []
