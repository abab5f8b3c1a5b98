"""The benchmark's traced run still reaches every function it names.

perfbench/spans.py wraps heunqdot functions by name and silently skips a name
the program no longer has, so a rename would leave its per-layer metrics at 0
without any error. This test runs the benchmark worker's operations under the
span recorder in a fresh interpreter (install() rebinds module attributes,
which must not leak into the test process) and checks that every traced span
name is recorded and that the termination spans carry their attributes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_TRACED_RUN = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import heunqdot.cli  # every layer, as the published-report worker imports
import spans, worker
recorder = spans.Recorder()
spans.install(recorder)
worker._report_op({"argv": ["report", "--n", "2..3", "--l", "0..1",
                            "--out", sys.argv[3]]})
worker._roots_op({"n": 6, "l": 1})
worker._eigen_op({"omega": 0.5, "l": 0, "N": 2})
worker._report_details({"n": [2, 3], "l": [0]})
print(json.dumps({"traced": sorted({entry[2] for entry in spans.TRACED}),
                  "spans": [[s[2], s[5]] for s in recorder.spans]}))
"""


def test_every_traced_span_is_recorded(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(ROOT / "src"),
         str(ROOT / "perfbench"), str(tmp_path / "report")],
        cwd=tmp_path, check=True, capture_output=True, text=True)
    run = json.loads(out.stdout.splitlines()[-1])
    recorded = {name for name, _ in run["spans"]}
    assert set(run["traced"]) <= recorded, set(run["traced"]) - recorded

    solves = [attrs for name, attrs in run["spans"]
              if name == "termination.solve"]
    assert solves
    for attrs in solves:
        conv, n, l = attrs["key"]
        assert conv in ("table", "literal") and n >= 1 and l >= 0
        assert attrs["degree"] == 3 * (n // 2)
        assert attrs["roots"] >= 0
    assert ["table", 6, 1] in [attrs["key"] for attrs in solves]
