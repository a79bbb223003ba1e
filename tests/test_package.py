import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import polyvol
from polyvol.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# Calls whose kernels need only the standard library, and one usage error.
STDLIB_CALLS = (
    ["volume", "kbip:3,4"],
    ["volume", "path:6"],
    ["volume", "kbip:2,3", "--method", "perm"],
    ["volume", "kbip:2,2", "--method", "sym"],
    ["sliced", "njoin(2,null:2)"],
    ["families", "path", "1..5"],
    ["volume", "path:4", "--method", "bogus"],
)
# Calls whose kernels use numpy, and series, which once used mpmath.
LIBRARY_CALLS = (
    ["volume", "cycle:5", "--method", "rvf"],
    ["count", "path:3", "2"],
    ["volume", "path:4", "--method", "mc", "--samples", "1000"],
    ["series", "3", "--terms", "10"],
)

# Runs each call through main() in one fresh interpreter in which mpmath
# cannot be imported, as if it were not installed, and prints, as JSON, the
# (exit code, stdout) of each and the heavy libraries loaded after the
# standard-library calls and after all of them.
PROBE = """
import contextlib, io, json, sys

sys.modules["mpmath"] = None  # any import of it raises ImportError
import polyvol.cli

def call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = polyvol.cli.main(argv)
    return code, out.getvalue()

def loaded():
    return [name for name in ("numpy", "mpmath") if sys.modules.get(name)]

stdlib_calls, library_calls = json.loads(sys.argv[1])
after_import = loaded()
stdlib = [call(argv) for argv in stdlib_calls]
after_stdlib = loaded()
library = [call(argv) for argv in library_calls]
print(json.dumps({
    "file": polyvol.cli.__file__,
    "after_import": after_import,
    "stdlib": stdlib,
    "after_stdlib": after_stdlib,
    "library": library,
    "after_library": loaded(),
}))
"""


def test_all_lists_only_functions_and_classes():
    for name in polyvol.__all__:
        assert not isinstance(getattr(polyvol, name), ModuleType), name


def test_stdlib_commands_load_neither_numpy_nor_mpmath(capsys):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps([STDLIB_CALLS, LIBRARY_CALLS])],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    report = json.loads(done.stdout)
    assert Path(report["file"]).resolve().is_relative_to(SRC)
    assert report["after_import"] == []
    assert report["after_stdlib"] == []
    assert report["after_library"] == ["numpy"]
    results = report["stdlib"] + report["library"]
    assert [code for code, _ in results] == [0] * 6 + [1] + [0] * 4
    for argv, result in zip(STDLIB_CALLS + LIBRARY_CALLS, results):
        assert result == [main(argv), capsys.readouterr().out], argv


# Prints which of dataclasses, inspect and json a fresh interpreter has
# loaded after importing polyvol.cli, after a plain call and after a --json
# call.
LAZY_PROBE = """
import contextlib, io, sys

lazy = ("dataclasses", "inspect", "json")
before = set(sys.modules)
import polyvol.cli
stages = [sorted(set(lazy) & (set(sys.modules) - before))]
for argv in (["volume", "path:3"], ["volume", "path:3", "--json"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert polyvol.cli.main(argv) == 0
    stages.append(sorted(set(lazy) & (set(sys.modules) - before)))
print(stages)
"""


def test_cli_import_loads_neither_dataclasses_inspect_nor_json():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", LAZY_PROBE],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.split("\n")[0] == "[[], [], ['json']]"


def test_sources_parse_under_python_3_10():
    # pyproject.toml admits Python 3.10, whose grammar lacks later syntax
    # such as except* (3.11)
    sources = sorted((SRC / "polyvol").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
