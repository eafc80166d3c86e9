"""The README's Library example runs as written and prints what it promises.

``python tests/test_readme.py`` runs the example alone, without pytest.
"""

from pathlib import Path

_README = Path(__file__).resolve().parents[1] / "README.md"


def _run_library_example() -> None:
    """Run the first python block under the README's ``## Library`` heading."""
    section = _README.read_text().split("\n## Library\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(example, str(_README), "exec"), {})


def test_the_library_example_locates_the_closed_form_outlier(capsys):
    _run_library_example()
    located, closed_form = (float(line) for line in capsys.readouterr().out.splitlines())
    assert abs(located - closed_form) <= 1e-9


if __name__ == "__main__":
    _run_library_example()
