"""README's Library example runs as written, so it names no deleted function,
and its "Useful flags" paragraph names exactly the options of ``gcec run``."""

import pathlib
import re

from gcec.cli import build_parser

README = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_library_example_runs(capsys):
    exec(re.search(r"\n## Library\n+```python\n(.*?)\n```", README, re.S).group(1), {})
    assert capsys.readouterr().out


def test_readme_useful_flags_are_the_run_options():
    paragraph = re.search(r"\nUseful flags for `run`:(.*?)\n\n", README, re.S).group(1)
    named = set(re.findall(r"`(--[a-z-]+)", paragraph))
    (commands,) = build_parser()._subparsers._group_actions
    run = commands.choices["run"]
    options = {o for action in run._actions for o in action.option_strings if o.startswith("--")} - {"--help"}
    assert named == options
