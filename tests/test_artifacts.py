import ast
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import csv_writer_text, open_failing_on_write
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alskd import artifacts as artifacts_module
from alskd.artifacts import BLOCK_ROWS, write_csv, write_json
from alskd.registry import write_checkpoint

SRC = Path(artifacts_module.__file__).parent

FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
                     -2.2250738585072014e-308, 1e300, -1e-300, 0.1]))
INTS = st.integers(-2**63, 2**63 - 1)
# csv.writer quotes a field holding a delimiter, a quote or a line break
TEXT = st.text(alphabet=st.sampled_from(list(',"\r\n ab0.-')), max_size=6)
# per column kind: a pool of cell values and the container built from them. Object
# columns hold no np.float64: csv.writer writes its repr, "np.float64(x)", the writer str.
KINDS = {
    "float_array": (FLOATS, lambda cells: np.array(cells, dtype=np.float64)),
    "float_list": (FLOATS, list),
    "int_array": (INTS, lambda cells: np.array(cells, dtype=np.int64)),
    "int_list": (st.one_of(INTS, INTS.map(np.int64)), list),
    "bool_list": (st.booleans(), list),
    "bool_array": (st.booleans(), lambda cells: np.array(cells, dtype=bool)),
    "text": (st.one_of(TEXT, st.none()), list),
    "object": (st.one_of(st.none(), TEXT, FLOATS, INTS, INTS.map(np.int64), st.booleans()),
               list),
}


@st.composite
def csv_columns(draw):
    """1-5 named columns of 0-2,100 rows, each cycled from a drawn pool of cells."""
    names = draw(st.lists(TEXT, min_size=1, max_size=5, unique=True), label="names")
    n_rows = draw(st.one_of(st.integers(0, 3), st.integers(0, 2100)), label="rows")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    columns = {}
    for name in names:
        cells, build = KINDS[draw(st.sampled_from(sorted(KINDS)), label=f"kind of {name!r}")]
        pool = draw(st.lists(cells, min_size=1, max_size=12), label=f"pool of {name!r}")
        picks = rng.integers(len(pool), size=n_rows)
        columns[name] = build([pool[i] for i in picks])
    return columns


def written_text(columns: dict, tmp_path) -> str:
    """The text that ``write_csv`` writes for ``columns``, line ends and all."""
    path = tmp_path / "table.csv"
    write_csv(path, columns)
    return path.read_bytes().decode()


class TestCells:
    def test_cell_format(self, tmp_path):
        text = written_text({
            "float": [0.1, -0.0, float("nan"), float("-inf"), np.float64(1 / 3)],
            "maybe": [None, 2.5, None, 1e-300, None],
            "int": [0, -1, 2**40, np.int64(7), 3],
            "str": ["a", "b,c", "", "x y", "True"],
            "bool": [True, False, True, False, True],
            "np_bool": np.array([False, True, False, True, False]),
        }, tmp_path)
        assert text == "\r\n".join([
            "float,maybe,int,str,bool,np_bool",
            "0.1,,0,a,true,false",
            '-0.0,2.5,-1,"b,c",false,true',
            "nan,,1099511627776,,true,false",
            "-inf,1e-300,7,x y,false,true",
            "0.3333333333333333,,3,True,true,false",
        ]) + "\r\n"

    def test_floats_are_written_as_repr(self, tmp_path, rng):
        values = rng.standard_normal(2000) * 10.0 ** rng.integers(-300, 300, size=2000)
        lines = written_text({"x": values}, tmp_path).splitlines()
        assert lines[1:] == [repr(v) for v in values.tolist()]

    def test_one_dtype_per_column(self, tmp_path):
        # the float in the second block makes every int of the column a float
        lines = written_text({"x": [1] * BLOCK_ROWS + [1, 2.5]}, tmp_path).splitlines()
        assert lines[1:] == ["1.0"] * (BLOCK_ROWS + 1) + ["2.5"]

    def test_no_rows(self, tmp_path):
        assert written_text({"a": [], "b": []}, tmp_path) == "a,b\r\n"

    @settings(max_examples=300, deadline=None)
    @given(csv_columns())
    @example({"x": [None, "", None]})
    @example({"": [""] * (BLOCK_ROWS + 1)})
    @example({"a": [1, 2.5, np.int64(7), None], "b,\"c": ["x\r\ny", ' "q"', "", None]})
    def test_columns_match_the_csv_writer(self, columns):
        """write_csv gives csv.writer's bytes for every column kind."""
        expected = csv_writer_text(columns)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            write_csv(path, columns)
            assert path.read_bytes() == expected.encode("ascii")



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
    # the scan does see the writes that artifacts makes: two opens and json.dump
    assert len(file_writes((SRC / "artifacts.py").read_text())) == 3


def test_only_the_binary_writer_opens_files_through_replacing():
    """Text files go through write_csv or write_json, so every CSV has one line format;
    only the checkpoint writer in ``registry`` opens a file with ``replacing``."""
    users = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(
                node, "name", None)
            if name == "replacing":
                users.add(path.name)
    # equality, not a subset: the scan does see the checkpoint writer's use
    assert users == {"artifacts.py", "registry.py"}


def directory_makers(source: str) -> set[str]:
    """Qualified names of the functions in ``source`` that make a directory."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if getattr(child, "attr", None) in ("mkdir", "makedirs"):
                found.add(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_a_directory_is_made_only_with_its_first_file():
    """``replacing`` makes the directory of the file it writes; the registry makes its
    root up front, so an unwritable output fails before the first epoch trains."""
    makers = {(path.name, name) for path in sorted(SRC.glob("*.py"))
              for name in directory_makers(path.read_text())}
    assert makers == {("artifacts.py", "replacing"), ("registry.py", "CheckpointRegistry.__init__")}


def test_a_write_makes_its_missing_directories(tmp_path):
    target = tmp_path / "run" / "runs" / "base_ce" / "diagnostics.csv"
    write_csv(target, {"epoch": [1, 2]})
    assert target.read_bytes() == b"epoch\r\n1\r\n2\r\n"
    assert [p.name for p in target.parent.iterdir()] == ["diagnostics.csv"]
