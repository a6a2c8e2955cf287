"""The README's Python API example runs as written, and its Layout table names every module."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks, "README has no python example"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})


def test_layout_table_names_every_module():
    rows = re.findall(r"^\| `egflow\.(\w+)` \|", README.read_text(), flags=re.M)
    modules = [path.stem for path in (ROOT / "src" / "egflow").glob("*.py") if path.stem != "__init__"]
    assert sorted(rows) == sorted(modules)
