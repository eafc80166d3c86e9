"""The README's examples run as written: the Library example prints what it
promises, and every command of the CLI block exits 0.

``python tests/test_readme.py`` runs both in the current directory, without
pytest, and exits 1 if a command does not exit 0.
"""

import shlex
import sys
from pathlib import Path

from deteq.cli import main

_README = Path(__file__).resolve().parents[1] / "README.md"


def _run_library_example() -> None:
    """Run the first python block under the README's ``## Library`` heading."""
    section = _README.read_text().split("\n## Library\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(example, str(_README), "exec"), {})


def _cli_argvs() -> list:
    """The argv of each ``deteq`` line of the first sh block under ``## CLI``."""
    section = _README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("deteq ")]


def _run_cli_block() -> list:
    """Run the CLI block's commands in order through ``deteq.cli.main``; their exit codes."""
    return [main(argv) for argv in _cli_argvs()]


def test_the_library_example_locates_the_closed_form_outlier(capsys):
    _run_library_example()
    located, closed_form = (float(line) for line in capsys.readouterr().out.splitlines())
    assert abs(located - closed_form) <= 1e-9


def test_every_command_of_the_cli_block_exits_zero(tmp_path, monkeypatch):
    assert {argv[0] for argv in _cli_argvs()} == {"profile", "density", "outliers",
                                                  "sample", "validate"}
    monkeypatch.chdir(tmp_path)
    codes = _run_cli_block()
    assert codes == [0] * len(codes)


if __name__ == "__main__":
    _run_library_example()
    sys.exit(any(_run_cli_block()))
