"""tools/same_outputs.py: its docstring counts the cases it runs."""

import importlib.util
import re
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"


def test_docstring_counts_every_case(tmp_path, monkeypatch):
    # the tool puts bench/ on sys.path to import bench/inputs.py
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    count = len(tool.cases(str(tmp_path)))
    doc = tool.__doc__
    assert int(re.search(r"Runs (\d+) CLI cases", doc).group(1)) == count
    groups = [int(n) for n in re.findall(r"\((\d+)\)[;.]", doc)]
    assert len(groups) == 11 and sum(groups) == count
