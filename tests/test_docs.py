"""The README's runnable examples print what their comments say."""

import contextlib
import io
import pathlib
import re
import shlex

from wavg import cli

README = pathlib.Path(__file__).parent.parent / "README.md"
# A "# -> value" comment: what the command on its line, or on the line
# above, prints.
ARROW = re.compile(r"#\s*->\s*(.*?)\s*$")


def test_library_quickstart_prints_its_comments():
    text = README.read_text()
    section = text[text.index("## Library quickstart"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    expected = [line.split("#", 1)[1].strip()
                for line in block.splitlines() if "#" in line]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
    assert expected == ["14/15", "4/3 True", "witness-found 14/15"]


def test_command_line_block_runs_as_documented(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command line"):]
    lines = re.search(r"```sh\n(.*?)```", section, re.S).group(1).splitlines()
    commands, arrows = 0, 0
    for line, after in zip(lines, lines[1:] + [""]):
        if not line.startswith("wavg "):
            continue
        commands += 1
        code = cli.main(shlex.split(line, comments=True)[1:])
        out = capsys.readouterr().out
        # 0 or 1 (a witness or a failed check), never bad input, an
        # exhausted budget or an internal error.
        assert code in (0, 1), line
        arrow = ARROW.search(line) or ARROW.match(after.strip())
        if arrow:
            arrows += 1
            assert out == arrow.group(1) + "\n", line
    assert commands >= 11 and arrows >= 4
