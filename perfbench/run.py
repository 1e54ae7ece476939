"""imbkit benchmark: drives the ``imbkit`` CLI from outside and prints its metrics.

    python3 perfbench/run.py --workload cv_bundled --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from anywhere; it works in the checkout that holds this directory and
imports imbkit from that checkout's ``src/``.  ``--trace 0`` times whole
passes of the workload for ``--seconds`` and prints the end-to-end metrics.
``--trace 1`` runs one untraced pass and two traced passes and prints the
per-layer metrics.  The last line of standard output is the result JSON.
Full results, the environment, report digests and spans go to
``.perfbench_out/``.

Every pass is gated: each report must parse and hold the expected number of
folds, report bytes must be identical across passes, traced or not, and
across runs of the same code and seed (kept in ``.perfbench_out/ledger.json``),
and traced passes must repeat their exact counters.  A failed gate prints
``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracing import EXACT_COUNTERS, Patches, Tracer
from workloads import WORKLOADS, tiny_csv, TINY_FLAGS

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(".perfbench_out")
SETUP_PROBES = 5
TRACED_PASSES = 2
STAGES = ("partition", "clean", "overlap_ratio", "balance", "ensemble", "predict")

END_TO_END = {  # name: (unit, better)
    "setup_s": ("s", "lower"),
    "folds_per_s": ("folds/s", "higher"),
    "fold_s_p50": ("s", "lower"),
    "fold_s_p90": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "macro_f1": ("1", "higher"),
    "g_mean": ("1", "higher"),
}

PER_LAYER = {
    **{f"harness.{s}_s": ("s", "lower") for s in STAGES},
    "harness.emit_report_s": ("s", "lower"),
    "aborted_fold_frac": ("1", "lower"),
    "data_model.load_csv_s": ("s", "lower"),
    "data_model.stratified_folds_s": ("s", "lower"),
    "posterior.fit_nb_s": ("s", "lower"),
    "posterior.posteriors_s": ("s", "lower"),
    "region.partition_s": ("s", "lower"),
    "overlap.sor_all_s": ("s", "lower"),
    "overlap.gap_profile.calls": ("count", "lower"),
    "resample.build_balanced_s": ("s", "lower"),
    "resample.omrp_s": ("s", "lower"),
    "resample.omrp.attempts": ("count", "lower"),
    "resample.omrp.accepted": ("count", "higher"),
    "resample.omrp.accept_ratio": ("1", "higher"),
    "learners.train_pool_s": ("s", "lower"),
    "learners.member_predictions_s": ("s", "lower"),
    "learners.knn_predict_s": ("s", "lower"),
    "learners.vote_from_predictions_s": ("s", "lower"),
    "learners.vote_from_predictions.calls": ("count", "lower"),
    "learners.vote_shares_s": ("s", "lower"),
    "pruning.prune_s": ("s", "lower"),
    "pruning.fitness_evals": ("count", "lower"),
    "pruning.distinct_masks": ("count", "higher"),
    "pruning.distinct_ratio": ("1", "higher"),
    "metrics.classification_metrics_s": ("s", "lower"),
    "metrics.classification_metrics.calls": ("count", "lower"),
    "metrics.overlap_ratios_s": ("s", "lower"),
    "metrics.overlap_ratios.calls": ("count", "lower"),
    "metrics.macro_ovr_auc_s": ("s", "lower"),
    "distances.pairwise_sq_s": ("s", "lower"),
    "distances.pairwise_sq.calls": ("count", "lower"),
    "distances.pairwise_sq.cells": ("count", "lower"),
    "distances.pairwise_sq.bytes_computed": ("B", "lower"),
    "distances.min_dist_s": ("s", "lower"),
    "trace.overhead": ("1", "lower"),
    "trace.folds_per_s_untraced": ("folds/s", "higher"),
    "trace.folds_per_s_traced": ("folds/s", "higher"),
}


class GateError(Exception):
    """A correctness gate failed: wrong, missing or drifting output."""


@dataclass
class Pass:
    wall_s: float
    folds: list        # FoldResult of every captured report
    digests: dict      # report path -> sha256 of its bytes
    documents: list    # parsed reports


def _import_imbkit():
    src = ROOT / "src"
    if not (src / "imbkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no imbkit sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from imbkit import cli, harness
    if Path(cli.__file__).resolve().parent != src / "imbkit":
        raise SystemExit(f"error: imported imbkit from {cli.__file__}, not from {src}")
    return cli, harness


def prepare(workload: str, seed: int, tiny: bool, work: Path):
    """Imports, input generation and one warm-up call; returns (cli, harness, calls)."""
    cli, harness = _import_imbkit()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    calls = WORKLOADS[workload](work, seed, tiny)
    warm = tiny_csv(work, seed, "warmup")
    with redirect_stdout(io.StringIO()):
        rc = cli.main(["run", "--data", str(warm), "--label-col", "class", "--seed", str(seed),
                       "--out", str(work / "warmup.json"), *TINY_FLAGS])
    if rc != 0:
        raise GateError(f"warm-up run exited {rc}")
    return cli, harness, calls


def probe_setup(args) -> float:
    """Seconds from spawning a fresh interpreter until it has prepared the workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise GateError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - t0


def _check_reports(calls) -> tuple:
    digests, documents = {}, []
    for call in calls:
        for path in call.reports:
            try:
                data = Path(path).read_bytes()
                doc = json.loads(data)
            except (OSError, ValueError) as exc:
                raise GateError(f"report {path} missing or unparsable: {exc}") from exc
            if len(doc.get("folds", ())) != call.folds_per_report:
                raise GateError(f"report {path} holds {len(doc.get('folds', ()))} folds, "
                                f"expected {call.folds_per_report}")
            digests[path] = hashlib.sha256(data).hexdigest()
            documents.append(doc)
    return digests, documents


def run_pass(cli, calls, captured: list, tracer: Tracer | None = None) -> Pass:
    """One closed-loop pass over the workload's CLI calls; timed from first call to last report."""
    for call in calls:
        for path in call.reports:
            Path(path).unlink(missing_ok=True)
    captured.clear()
    sink = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(sink):
        for call in calls:
            if tracer is not None:
                tracer.call_label = call.label
            rc = cli.main(list(call.argv))
            if rc not in (0, 1):  # 1 = partial report: aborted folds are counted, not fatal
                raise GateError(f"imbkit {' '.join(call.argv)} exited {rc}")
    wall = time.perf_counter() - t0
    digests, documents = _check_reports(calls)
    expected = sum(len(c.reports) * c.folds_per_report for c in calls)
    folds = [fr for report in captured for fr in report.folds]
    if len(folds) != expected:
        raise GateError(f"run_cv returned {len(folds)} folds, expected {expected}")
    return Pass(wall_s=wall, folds=folds, digests=digests, documents=documents)


def _completed(p: Pass) -> list:
    return [fr for fr in p.folds if fr.status == "ok"]


def _check_identical(passes) -> None:
    for p in passes[1:]:
        if p.digests != passes[0].digests:
            changed = sorted(k for k in p.digests if p.digests[k] != passes[0].digests.get(k))
            raise GateError(f"report bytes differ between passes: {changed}")


def _mean_aggregate(documents, key: str) -> float:
    try:
        return statistics.fmean(doc["aggregate"][key]["mean"] for doc in documents)
    except KeyError as exc:
        raise GateError(f"a report has no aggregate {key}: no fold completed") from exc


def end_to_end_metrics(passes, setup_s: float) -> dict:
    latencies = [sum(fr.timings.values()) for p in passes for fr in _completed(p)]
    if not latencies:
        raise GateError("no fold completed")
    return {
        "setup_s": setup_s,
        "folds_per_s": statistics.median(len(_completed(p)) / p.wall_s for p in passes),
        "fold_s_p50": statistics.median(latencies),
        "fold_s_p90": float(np.percentile(latencies, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "macro_f1": _mean_aggregate(passes[0].documents, "f1"),
        "g_mean": _mean_aggregate(passes[0].documents, "g_mean"),
    }


def layer_metrics(untraced: Pass, traced: list, tracers: list) -> dict:
    """Stage sums come from the untraced pass; self times are medians over traced passes."""
    out = {f"harness.{s}_s": sum(fr.timings.get(s, 0.0) for fr in untraced.folds) for s in STAGES}
    self_times = [t.self_times() for t in tracers]

    def busy(function):
        return statistics.median(st.get(function, 0.0) for st in self_times)

    for name in PER_LAYER:
        if name.endswith("_s") and name not in out:
            out[name] = busy(name[:-2])
    counters = tracers[-1].counters
    for name in PER_LAYER:
        if name.endswith(".calls") or name in EXACT_COUNTERS:
            out[name] = counters[name]
    out["distances.pairwise_sq.bytes_computed"] = 8 * counters["distances.pairwise_sq.cells"]
    out["resample.omrp.accept_ratio"] = (counters["resample.omrp.accepted"]
                                         / max(counters["resample.omrp.attempts"], 1))
    out["pruning.distinct_ratio"] = (counters["pruning.distinct_masks"]
                                     / max(counters["pruning.fitness_evals"], 1))
    all_passes = [untraced] + traced
    attempted = sum(len(p.folds) for p in all_passes)
    out["aborted_fold_frac"] = sum(len(p.folds) - len(_completed(p)) for p in all_passes) / attempted
    fps_untraced = len(_completed(untraced)) / untraced.wall_s
    fps_traced = statistics.median(len(_completed(p)) / p.wall_s for p in traced)
    out["trace.folds_per_s_untraced"] = fps_untraced
    out["trace.folds_per_s_traced"] = fps_traced
    out["trace.overhead"] = 1.0 - fps_traced / fps_untraced
    return out


def code_digest() -> str:
    """sha256 over the library and benchmark sources: the ledger compares only equal code."""
    h = hashlib.sha256()
    for path in sorted([*Path("src").rglob("*.py"), *Path("perfbench").rglob("*.py")]):
        h.update(str(path).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def check_ledger(key: str, digests: dict, counters: dict | None) -> None:
    """Compare with what earlier runs of the same code and seed recorded, then record."""
    path = OUT / "ledger.json"
    ledger = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    entry = ledger.setdefault(key, {})
    if entry.setdefault("digests", digests) != digests:
        raise GateError(f"report bytes differ from an earlier run of the same code and seed ({key})")
    if counters is not None and entry.setdefault("counters", counters) != counters:
        raise GateError(f"exact counters differ from an earlier traced run ({key})")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


def _getconf_caches() -> dict:
    try:
        text = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    sizes = dict(line.split(None, 1) for line in text.splitlines() if len(line.split(None, 1)) == 2)
    return {k: sizes.get(k) for k in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE")}


def environment(seed: int) -> dict:
    git_sha = None
    if Path(".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        git_sha = proc.stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": git_sha,
        "code_sha256": code_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _getconf_caches(),
        "machine": platform.machine(),
        "seed": seed,
    }


def timed_passes(cli, calls, captured, seconds: float) -> list:
    """Whole untraced passes until ``seconds`` have elapsed; at least one."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(cli, calls, captured))
    _check_identical(passes)
    return passes


def traced_passes(cli, calls, captured, workload: str) -> tuple:
    """One untraced pass, then TRACED_PASSES traced ones; returns (passes, tracers)."""
    passes = [run_pass(cli, calls, captured)]
    tracers = []
    for _ in range(TRACED_PASSES):
        tracer = Tracer()
        try:
            tracer.install()
            passes.append(run_pass(cli, calls, captured, tracer))
        finally:
            tracer.restore()
        errors = tracer.coverage_errors(workload) + tracer.variant_errors(
            sum(len(c.reports) for c in calls), calls[0].folds_per_report)
        if errors:
            raise GateError("; ".join(errors))
        tracers.append(tracer)
    _check_identical(passes)
    first, last = tracers[0].counters, tracers[-1].counters
    drift = sorted(k for k in first.keys() | last.keys() if first[k] != last[k])
    if drift:
        raise GateError(f"counters drifted between traced passes: {drift}")
    return passes, tracers


def run_workload(args) -> tuple:
    """Returns (result line, full record) for one run; raises GateError on a failed gate."""
    setup_s = None
    if not args.trace:
        setup_s = statistics.median(probe_setup(args) for _ in range(SETUP_PROBES))
        shutil.rmtree(OUT / "work" / f"{args.workload}-probe", ignore_errors=True)
    cli, harness, calls = prepare(args.workload, args.seed, args.tiny, OUT / "work" / args.workload)

    captured = []

    def capturing(run_cv):
        def run_cv_captured(*a, **kw):
            captured.append(run_cv(*a, **kw))
            return captured[-1]
        return run_cv_captured

    capture = Patches()
    capture.replace(harness, "run_cv", capturing)
    try:
        if args.trace:
            passes, tracers = traced_passes(cli, calls, captured, args.workload)
        else:
            passes = timed_passes(cli, calls, captured, args.seconds)
    finally:
        capture.restore()

    if args.trace:
        metrics, table = layer_metrics(passes[0], passes[1:], tracers), PER_LAYER
        counters = dict(sorted(tracers[-1].counters.items()))
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        tracers[-1].write_spans(OUT / "spans" / f"{_run_name(args, seed=False)}.jsonl")
    else:
        metrics, table = end_to_end_metrics(passes, setup_s), END_TO_END
        counters = None
    check_ledger(f"{code_digest()}|{_run_name(args, trace=False)}", passes[0].digests, counters)

    attempted = sum(len(p.folds) for p in passes)
    failed = attempted - sum(len(_completed(p)) for p in passes)
    result = {"correct": True, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": table[k][0]} for k in table}}
    record = {"run": _run_name(args), "environment": environment(args.seed), "result": result,
              "better": {k: v[1] for k, v in table.items()},
              "pass_wall_s": [p.wall_s for p in passes], "report_sha256": passes[0].digests,
              "counters": counters}
    return result, record


def _run_name(args, seed=True, trace=True) -> str:
    return (args.workload + (f"-seed{args.seed}" if seed else "")
            + (f"-trace{args.trace}" if trace else "") + ("-tiny" if args.tiny else ""))


def self_test(seed: int) -> int:
    """Tiny runs of every workload, traced and untraced, on two seeds; checks names and units."""
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    errors = []
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        if declared != table:
            errors.append(f"BENCHMARK.json {key} differs from run.py: "
                          f"{sorted(set(declared.items()) ^ set(table.items()))}")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.py")
    for s in (seed, seed + 1):
        for workload in WORKLOADS:
            for trace in (0, 1):
                cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                       "--seed", str(s), "--seconds", "1", "--trace", str(trace), "--tiny"]
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
                where = f"{workload} seed={s} trace={trace}"
                before = len(errors)
                if proc.returncode != 0:
                    errors.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                    continue
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                table = PER_LAYER if trace else END_TO_END
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    errors.append(f"{where}: result keys {sorted(result)}")
                elif not result["correct"] or result["failed"] or result["attempted"] < 1:
                    errors.append(f"{where}: not clean: {result}")
                elif set(result["metrics"]) != set(table):
                    errors.append(f"{where}: metrics {sorted(set(result['metrics']) ^ set(table))}")
                else:
                    for name, m in result["metrics"].items():
                        if m["unit"] != table[name][0] or not math.isfinite(m["value"]):
                            errors.append(f"{where}: {name} = {m}")
                print(f"self-test {where}: {'ok' if len(errors) == before else 'FAILED'}",
                      file=sys.stderr)
    for e in errors:
        print(f"self-test error: {e}", file=sys.stderr)
    print("self-test: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small generated inputs (self-test)")
    parser.add_argument("--self-test", action="store_true",
                        help="tiny runs of every workload on two seeds, checking every metric")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    _import_imbkit()  # fail before any output when the checkout has no imbkit sources
    if args.self_test:
        return self_test(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        prepare(args.workload, args.seed, args.tiny, OUT / "work" / f"{args.workload}-probe")
        print(time.monotonic())
        return 0

    try:
        result, record = run_workload(args)
    except GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{_run_name(args)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"environment": record["environment"]}), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
