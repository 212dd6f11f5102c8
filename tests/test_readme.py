import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_readme_python_example_runs(capsys):
    # the README's Python API block, executed as written
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
