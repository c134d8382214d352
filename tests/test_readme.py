"""The README's code examples run against the package as it is."""

import re
from pathlib import Path

from alskd.config import INI_KEYS, KEYS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_snippet_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(snippet, "README.md", "exec"), {})
    weight, same_weight, _ = capsys.readouterr().out.split("\n", 2)
    assert weight == same_weight


def test_configuration_table_lists_the_parser_keys():
    """Each (dataclass, section, key) of the table, and nothing else, is a parser key."""
    table = README.read_text().split("## Configuration", 1)[1].split("| section |", 1)[1]
    listed = set()
    for section, owner, keys in re.findall(r"^\| `(\w+)` \| (\S+) \| (.*) \|$",
                                          table.split("\n\n", 1)[0], re.MULTILINE):
        keys = re.sub(r"\(.*?\)", "", keys)  # drop the allowed values in parentheses
        listed |= {(owner.strip("`"), section, key) for key in re.findall(r"`(\w+)`", keys)}
    owners = {key: cls.__name__ for cls, keys in INI_KEYS.items() for key in keys.values()}
    assert listed == {(owners.get(key, "none"), *key) for key in KEYS}
