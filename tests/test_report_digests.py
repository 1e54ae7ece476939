"""A seeded report is byte-identical whatever the BLAS thread count.

``scripts/report_digests.py`` lists the reference reports.  Each is made in a
fresh interpreter under one and under two OpenBLAS threads, since the count
is read once, when numpy loads, and every digest must agree.  The committed
``REPORT_DIGESTS.json`` is not compared: another numpy or BLAS build may
change its digests with no code change.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
N_REPORTS = 13  # the bundled CSVs raw and scaled, the wide pool, the mixture raw and scaled
CHILD = "import json, sys; sys.path.insert(0, sys.argv[1]); import report_digests; " \
        "json.dump(report_digests.generate(), sys.stdout)"


def test_reports_identical_under_one_and_two_blas_threads(monkeypatch):
    children = [subprocess.Popen([sys.executable, "-c", CHILD, str(SCRIPTS)],
                                 env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                for threads in ("1", "2")]  # concurrently: each runs for seconds
    outputs = [child.communicate(timeout=600) for child in children]
    for child, (_, err) in zip(children, outputs):
        assert child.returncode == 0, err
    one, two = (json.loads(out) for out, _ in outputs)
    monkeypatch.syspath_prepend(str(SCRIPTS))  # undone after the test, with the script's own additions
    import report_digests

    assert len(one) == len(two) == N_REPORTS
    differ = report_digests.check({"reports": one}, two)
    assert differ == [], "under one -> two threads:\n" + "\n".join(differ)
