"""The README's runnable example prints what its comments say."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"


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
