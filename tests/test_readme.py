"""The README's code examples run against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_snippet_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(snippet, "README.md", "exec"), {})
    weight, same_weight, _ = capsys.readouterr().out.split("\n", 2)
    assert weight == same_weight
