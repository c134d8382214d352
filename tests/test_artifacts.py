import ast
from pathlib import Path

import numpy as np
import pytest
from conftest import open_failing_on_write

from alskd import artifacts as artifacts_module
from alskd.artifacts import csv_text, write_csv, write_json
from alskd.registry import write_checkpoint

SRC = Path(artifacts_module.__file__).parent


class TestCells:
    def test_cell_format(self):
        text = csv_text({
            "float": [0.1, -0.0, float("nan"), float("-inf"), np.float64(1 / 3)],
            "maybe": [None, 2.5, None, 1e-300, None],
            "int": [0, -1, 2**40, np.int64(7), 3],
            "str": ["a", "b,c", "", "x y", "True"],
            "bool": [True, False, True, False, True],
            "np_bool": np.array([False, True, False, True, False]),
        })
        assert text == "\r\n".join([
            "float,maybe,int,str,bool,np_bool",
            "0.1,,0,a,true,false",
            '-0.0,2.5,-1,"b,c",false,true',
            "nan,,1099511627776,,true,false",
            "-inf,1e-300,7,x y,false,true",
            "0.3333333333333333,,3,True,true,false",
        ]) + "\r\n"

    def test_floats_are_written_as_repr(self, rng):
        values = rng.standard_normal(2000) * 10.0 ** rng.integers(-300, 300, size=2000)
        lines = csv_text({"x": values}).splitlines()
        assert lines[1:] == [repr(v) for v in values.tolist()]

    def test_no_rows(self):
        assert csv_text({"a": [], "b": []}) == "a,b\r\n"


class TestReplacing:
    def test_write_json_layout(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_json(path, {"b": [1, 2.5], "a": None})
        assert path.read_text() == '{\n  "a": null,\n  "b": [\n    1,\n    2.5\n  ]\n}\n'

    WRITERS = {
        "csv": (lambda path, v: write_csv(path, {"x": np.arange(50) * v, "y": np.arange(50)})),
        "json": (lambda path, v: write_json(path, {"values": [v] * 50})),
        "checkpoint": (lambda path, v: write_checkpoint(path, np.full(8, v, np.float32),
                                                        1, float(v), "accuracy")),
    }

    @pytest.mark.parametrize("exc", [OSError("disk full"), KeyboardInterrupt()],
                             ids=["oserror", "interrupt"])
    @pytest.mark.parametrize("kind", list(WRITERS))
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, kind, exc):
        writer = self.WRITERS[kind]
        path = tmp_path / "artifact"
        writer(path, 1.0)
        before = path.read_bytes()
        monkeypatch.setattr(artifacts_module, "open", open_failing_on_write("artifact", exc),
                            raising=False)
        with pytest.raises(type(exc)):
            writer(path, 2.0)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]

        writer(path, 2.0)
        assert path.read_bytes() != before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]

    def test_new_file_appears_only_when_complete(self, tmp_path, monkeypatch):
        path = tmp_path / "artifact.json"
        monkeypatch.setattr(artifacts_module, "open",
                            open_failing_on_write("artifact", OSError("disk full")),
                            raising=False)
        with pytest.raises(OSError):
            write_json(path, {"values": list(range(10))})
        assert list(tmp_path.iterdir()) == []


WRITE_MODES = set("wax+")


def file_writes(source: str) -> list[str]:
    """Calls in ``source`` that write a file outside ``artifacts``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        owner = func.value.id if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name) else None
        if name == "open":
            # open(file, mode) or a method such as Path.open(mode)
            position = 0 if isinstance(func, ast.Attribute) else 1
            mode = node.args[position] if len(node.args) > position else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and not WRITE_MODES & set(mode.value)):
                found.append(f"line {node.lineno}: open for writing")
        elif name in ("write_text", "write_bytes"):
            found.append(f"line {node.lineno}: {name}")
        elif (owner, name) in {("json", "dump"), ("csv", "writer"), ("csv", "DictWriter")}:
            found.append(f"line {node.lineno}: {owner}.{name}")
    return found


def test_only_artifacts_writes_files():
    offenders = {path.name: file_writes(path.read_text())
                 for path in sorted(SRC.glob("*.py")) if path.name != "artifacts.py"}
    assert {name: calls for name, calls in offenders.items() if calls} == {}
    # the scan does see the writes that artifacts makes
    assert len(file_writes((SRC / "artifacts.py").read_text())) == 4
