import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# five code lines: the import, the def and the three lines of the call
SOURCE = "\n".join([
    '"""Module docstring',
    'over two lines."""',
    "",
    "import os  # a trailing comment keeps its line",
    "",
    "",
    "def join(x):",
    '    """Function docstring."""',
    "    # a comment-only line",
    "",
    "    return os.path.join(",
    "        x,",
    '        "y")',
    "",
])


def test_counts_only_the_lines_that_carry_code():
    assert code_lines.code_lines(SOURCE) == 5


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "     1  b.py\n     5  pkg/a.py\n     6  total\n"
