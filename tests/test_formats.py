from pathlib import Path

import numpy as np

import holderlab
from holderlab.formats import write_csv, write_json


def test_csv_cells_and_json_layout(tmp_path):
    csv_path = write_csv(tmp_path / "new" / "t.csv", ["a", "b", "c"],
                         [[1, 0.1, "x"], [np.int64(2), np.float64(-0.0), float("nan")]])
    assert csv_path.read_bytes() == b"a,b,c\r\n1,0.10000000000000001,x\r\n2,-0,nan\r\n"
    json_path = write_json(tmp_path / "deeper" / "new" / "t.json",
                           {"b": np.float64(0.5), "a": [np.int64(3), np.bool_(True)]})
    assert json_path.read_text() == '{\n  "a": [\n    3,\n    true\n  ],\n  "b": 0.5\n}\n'


def test_only_formats_renders_csv_and_json():
    src = Path(holderlab.__file__).parent
    renderers = [p.name for p in sorted(src.glob("*.py"))
                 if "json.dump(" in p.read_text() or "csv.writer(" in p.read_text()]
    assert renderers == ["formats.py"]
