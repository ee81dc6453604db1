"""The README's examples run as written.

The python blocks run in order in one namespace, since later blocks use the
names earlier ones define; a statement whose last line ends in "# raises X"
must raise X, a package error or a builtin one. Every `qeuler` line of the
CLI section runs, in order, in one scratch directory, since later commands
read the files earlier ones write, and must exit 0.
"""

import ast
import builtins
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import qeuler

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run():
    text = README.read_text(encoding="utf-8")
    lines = text.splitlines()
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, flags=re.S | re.M))
    assert blocks, "README.md has no python block"
    names = {}
    for block in blocks:
        tree = ast.parse(block[1])
        ast.increment_lineno(tree, text.count("\n", 0, block.start(1)))
        for stmt in tree.body:
            code = compile(ast.Module([stmt], []), str(README), "exec")
            raises = re.search(r"# raises (\w+)", lines[stmt.end_lineno - 1])
            if raises is None:
                exec(code, names)
                continue
            error = getattr(qeuler, raises[1], None) or getattr(builtins, raises[1])
            try:
                exec(code, names)
            except error:
                continue
            raise AssertionError(f"README.md:{stmt.lineno}: no {raises[1]} raised")


def _cli_commands():
    """The lines that start with `qeuler ` from "## CLI" up to the next section."""
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## CLI\n(.*?)(?=^## |\Z)", text, flags=re.S | re.M)
    assert section, "README.md has no CLI section"
    return [line for line in section[1].splitlines() if line.startswith("qeuler ")]


def test_readme_cli_examples_exit_zero(tmp_path):
    commands = _cli_commands()
    assert commands, "README.md's CLI section has no qeuler command"
    # the package this test imports, whether installed or on PYTHONPATH
    src = str(Path(qeuler.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for command in commands:
        argv = [sys.executable, "-m", "qeuler.cli"] + shlex.split(command)[1:]
        proc = subprocess.run(
            argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, f"{command} exited {proc.returncode}: {proc.stderr[-400:]}"
