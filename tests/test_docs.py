"""The README's code runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_sketch_runs():
    sketches = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                          re.DOTALL | re.MULTILINE)
    assert len(sketches) == 1
    exec(compile(sketches[0], "README.md", "exec"), {})
