"""README's Library example runs as written, so it names no deleted function."""

import pathlib
import re


def test_readme_library_example_runs(capsys):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    exec(re.search(r"\n## Library\n+```python\n(.*?)\n```", readme, re.S).group(1), {})
    assert capsys.readouterr().out
