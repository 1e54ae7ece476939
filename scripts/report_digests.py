#!/usr/bin/env python3
"""Record, or check, the sha256 of imbkit's reference reports.

    python3 scripts/report_digests.py           # regenerate REPORT_DIGESTS.json
    python3 scripts/report_digests.py --check   # list every report whose digest changed

The reference reports are ``imbkit run`` at seed 0, with the default config
unless stated:
- each bundled CSV under ``data/``, raw and ``--scale``, 5-fold CV repeated twice;
- new-thyroid with a 12-member pool from a config file, 2-fold CV once and a
  4 x 3 Jaya search: its 4,095 masks far exceed the 16 genomes the search
  meets, and its memo keys span two bytes;
- the benchmark's 4000 x 10 Gaussian mixture (``perfbench/workloads.py``,
  seed 0), raw and ``--scale``, 5-fold CV once.

Next to each digest the file keeps the report's aggregate means, so a check
prints them before and after.  It also records the numpy version and BLAS
build that made the reports: the distance kernels' rounding depends on the
BLAS build, so another build may change digests with no code change.
``--check`` exits 1 when a digest changed or a report is missing.  Run from
anywhere; it imports imbkit from this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from imbkit import cli  # noqa: E402
from workloads import gaussian_mixture, write_csv  # noqa: E402

DIGESTS = ROOT / "REPORT_DIGESTS.json"
MIXTURE = (4000, 10, (0.70, 0.22, 0.08))  # rows, features, class shares: the benchmark's large-fold input
WIDE_POOL = [["knn", {"k": 1}], ["knn", {"k": 3}], ["knn", {"k": 5}], ["knn", {"k": 7}],
             ["gaussian_nb", {}], ["tree", {"max_depth": 1}], ["tree", {"max_depth": 2}],
             ["tree", {"max_depth": 3}], ["extra_tree", {"max_depth": 1}],
             ["extra_tree", {"max_depth": 2}], ["extra_tree", {"max_depth": 3}],
             ["extra_tree", {"max_depth": 4}]]


def blas_build() -> str:
    """Name, version and configuration of the BLAS numpy was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 only prints its build configuration
        return "unknown"
    config = " ".join(str(blas.get("openblas configuration", "")).split())
    return " ".join(filter(None, (blas.get("name"), blas.get("version"), config and f"({config})")))


def cases(workdir: Path) -> list:
    """(name, ``imbkit run`` arguments) of every reference report, its inputs written under ``workdir``.

    Data paths are relative to ``workdir``: a report holds its data path, and
    it must not depend on where the checkout is.
    """
    (workdir / "data").mkdir()
    out = []
    for data in sorted((ROOT / "data").glob("*.csv")):
        shutil.copyfile(data, workdir / "data" / data.name)
        for scale in ((), ("--scale",)):
            args = ("--data", f"data/{data.name}", *scale, "--repeats", "2")
            out.append((" ".join((data.stem, *scale, "5x2")), args))
    (workdir / "pool.json").write_text(json.dumps({"pool": WIDE_POOL}), encoding="utf-8")
    out.append(("new-thyroid wide-pool 2x1", ("--data", "data/new-thyroid.csv", "--config", "pool.json",
                                              "--folds", "2", "--repeats", "1", "--jaya-pop", "4", "--jaya-iters", "3")))
    write_csv(workdir / "mixture.csv", *gaussian_mixture(np.random.default_rng(0), *MIXTURE))
    for scale in ((), ("--scale",)):
        out.append((" ".join(("mixture", *scale, "5x1")), ("--data", "mixture.csv", *scale, "--repeats", "1")))
    return out


def generate() -> dict:
    """{name: {"sha256", "aggregate"}} of every reference report, made in a temporary directory."""
    reports, cwd = {}, os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        os.chdir(workdir)
        try:
            for name, args in cases(workdir):
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    rc = cli.main(["run", *args, "--seed", "0", "--out", "report.json"])
                if rc not in (0, 1):
                    sys.exit(f"imbkit run for {name} exited {rc}")
                raw = (workdir / "report.json").read_bytes()
                aggregate = json.loads(raw).get("aggregate", {})
                reports[name] = {"sha256": hashlib.sha256(raw).hexdigest(),
                                 "aggregate": {key: ms["mean"] for key, ms in aggregate.items()}}
        finally:
            os.chdir(cwd)
    return reports


def check(recorded: dict, reports: dict) -> list:
    """One line per report whose digest changed, with its aggregate means before and after."""
    lines = []
    for name in sorted(recorded["reports"].keys() | reports.keys()):
        old, new = recorded["reports"].get(name), reports.get(name)
        if old is None or new is None:
            lines.append(f"{name}: {'not recorded' if old is None else 'not generated'}")
        elif old["sha256"] != new["sha256"]:
            means = ", ".join(f"{key} {old['aggregate'].get(key)!r} -> {value!r}"
                              for key, value in new["aggregate"].items()
                              if old["aggregate"].get(key) != value)
            lines.append(f"{name}: {old['sha256'][:16]} -> {new['sha256'][:16]}" + (f"; {means}" if means else ""))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help=f"compare with {DIGESTS.name} instead of rewriting it; exit 1 on any change")
    args = parser.parse_args(argv)
    doc = {"numpy": np.__version__, "blas": blas_build(), "reports": generate()}
    if not args.check:
        DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(doc['reports'])} digests to {DIGESTS.name}")
        return 0
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    for key in ("numpy", "blas"):
        if recorded[key] != doc[key]:
            print(f"note: {key} is {doc[key]!r}, the digests were made with {recorded[key]!r}")
    changed = check(recorded, doc["reports"])
    print("\n".join(changed) if changed else f"all {len(doc['reports'])} digests unchanged")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
