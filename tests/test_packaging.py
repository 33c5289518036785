import ast
import subprocess
import sys
import tomllib
from importlib import import_module
from pathlib import Path

import pytest

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



# Calls that create or change a file or directory; ``open`` counts when its
# mode is not a read-only literal.
WRITE_CALLS = {"write_bytes", "write_text", "mkdir", "makedirs"}


def _opens_for_writing(call: ast.Call) -> bool:
    # open(path, mode), io.open and os.open(path, flags), or path.open(mode)
    function = isinstance(call.func, ast.Name) or getattr(call.func.value, "id", None) in ("io", "os")
    position = 1 if function else 0
    modes = call.args[position:position + 1] + [k.value for k in call.keywords
                                                 if k.arg in ("mode", "flags")]
    return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str)
                    and not set(m.value) & set("wax+")) for m in modes)


def _called_name(call: ast.Call):
    return getattr(call.func, "attr", getattr(call.func, "id", None))


def _writes(call: ast.Call) -> bool:
    name = _called_name(call)
    return name in WRITE_CALLS or name == "open" and _opens_for_writing(call)


def _call_sites(matches):
    """(file, innermost enclosing function, called name) for each call in
    ``src/pathminer`` that ``matches``."""

    def visit(node, where, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, where, child.name)
                continue
            if isinstance(child, ast.Call) and matches(child):
                yield where, function, _called_name(child)
            yield from visit(child, where, function)

    for path in sorted((ROOT / "src" / "pathminer").glob("*.py")):
        yield from visit(ast.parse(path.read_text(encoding="utf-8")), path.name, "<module>")


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


def test_no_module_of_the_package_imports_dataclasses():
    # dataclasses imports inspect, and each class compiles its methods at
    # import: records are NamedTuples or plain classes, so that no command
    # starts with them
    importers = {where.split(":")[0] for where, name in _package_imports()
                 if name.split(".")[0] == "dataclasses"}
    assert importers == set()


def test_scipy_is_only_a_test_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert not any(dep.startswith("scipy") for dep in project["dependencies"])
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


def test_every_public_name_resolves_from_the_package_root():
    import pathminer

    assert pathminer.__all__
    assert [name for name in pathminer.__all__ if not hasattr(pathminer, name)] == []


def test_importing_the_package_loads_no_stage_module():
    result = subprocess.run(
        [sys.executable, "-c", "import sys, pathminer; "
         "print(sorted(m for m in sys.modules if m.startswith('pathminer')))"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "['pathminer']\n"


def test_dir_of_the_package_lists_every_public_name():
    import pathminer

    assert dir(pathminer) == pathminer.__all__


def test_unknown_name_on_the_package_raises_attribute_error():
    import pathminer

    with pytest.raises(AttributeError, match="has no attribute 'no_such_stage'"):
        pathminer.no_such_stage


def test_every_lazy_export_names_a_module_that_defines_it():
    # the export table names modules by string, which the import walk above
    # cannot see
    import pathminer

    for module, names in pathminer._EXPORTS.items():
        stage = import_module(f"pathminer.{module}")
        for name in names:
            value = getattr(stage, name)
            assert getattr(value, "__module__", stage.__name__) == stage.__name__, name
            assert getattr(pathminer, name) is value


def test_simulate_stays_the_function_after_its_module_is_imported():
    # importing a submodule sets the package attribute of its name, and
    # ``simulate`` is the name of both a stage module and its entry point
    result = subprocess.run(
        [sys.executable, "-c", "from pathminer.simulate import simulate; import pathminer; "
         "print(pathminer.simulate is simulate)"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True\n"


def test_only_the_cli_writer_writes_files():
    # every artifact, and cohorts' --outdir, goes through one writer, which
    # checks every target first; a second write path could leave a partial
    # output behind
    assert sorted(set(_call_sites(_writes))) == [("cli.py", "_write", "mkdir"),
                                                 ("cli.py", "_write", "write_bytes")]


def test_only_the_cli_runner_and_the_simulator_config_read_files():
    # run reads every analysis input, so each command is a function of parsed
    # inputs; simulate reads --config itself, since --patients/--seed must
    # reach load_config before it checks the config
    reads = _call_sites(lambda call: _called_name(call) in ("read_bytes", "read_text")
                        or _called_name(call) == "open" and not _opens_for_writing(call))
    assert sorted(set(reads)) == [("cli.py", "_simulate", "read_bytes"),
                                  ("cli.py", "run", "read_bytes")]


def test_only_the_process_entry_ends_the_process():
    # os._exit skips teardown, so only the one way in that a program takes
    # may call it; main(), which tests and embedding callers use, returns
    exits = _call_sites(lambda call: _called_name(call) == "_exit")
    assert list(exits) == [("cli.py", "entry", "_exit")]
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"pathminer": "pathminer.cli:entry"}
    dunder_main = ast.parse((ROOT / "src" / "pathminer" / "__main__.py").read_text(encoding="utf-8"))
    assert ast.unparse(dunder_main) == "from .cli import entry\nentry()"
    cli_guard = ast.parse((ROOT / "src" / "pathminer" / "cli.py").read_text(encoding="utf-8")).body[-1]
    assert ast.unparse(cli_guard) == "if __name__ == '__main__':\n    entry()"


def _bound_names(statement) -> set[str]:
    """The names a module-level definition or assignment binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return {node.id for target in targets for node in ast.walk(target)
                if isinstance(node, ast.Name)}
    return set()


def _loaded_names(statement) -> set[str]:
    """The names a statement reads: as a name, an attribute, or an import."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_private_module_name_is_read_outside_its_own_binding():
    # a private name that nothing reads is dead code; one that only its own
    # body reads (a recursive helper nothing calls) is dead too
    statements = [(path.name, statement)
                  for path in sorted((ROOT / "src" / "pathminer").glob("*.py"))
                  for statement in ast.parse(path.read_text(encoding="utf-8")).body]
    loaded = [_loaded_names(statement) for _, statement in statements]
    private = [(where, i, name) for i, (where, statement) in enumerate(statements)
               for name in _bound_names(statement)
               if name.startswith("_") and not name.startswith("__")]
    assert len(private) > 50
    unread = [f"{where}:{name}" for where, i, name in private
              if not any(name in names for j, names in enumerate(loaded) if j != i)]
    assert unread == []


def test_every_error_type_is_raised_somewhere():
    # an error type that nothing raises is dead code and a false promise to
    # callers that catch it
    tree = ast.parse((ROOT / "src" / "pathminer" / "errors.py").read_text(encoding="utf-8"))
    declared = {node.name for node in tree.body if isinstance(node, ast.ClassDef)
                and any(getattr(base, "id", None) == "PathminerError" for base in node.bases)}
    raised = set()
    for path in (ROOT / "src" / "pathminer").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", None))
    assert declared and sorted(declared - raised) == []
