"""Command-line interface.

Subcommands mirror the pipeline stages: ``partition`` dumps region tags,
``clean`` reports overlap reduction, ``balance`` writes a balanced CSV with a
provenance column, ``run`` executes cross-validation, ``ablate-noise`` and
``ablate-components`` sweep the ablation grids, ``report`` summarizes an
emitted JSON report.  Flags override JSON config-file values, which override
defaults.  Exit code 0 on success, 1 when any emitted report is partial, 2 on
hard errors, a wrong-typed or out-of-range config value among them.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
import warnings
from dataclasses import fields
from pathlib import Path

from . import harness, region
from .config import RunConfig, load_config_file, merge_config
from .data_model import Dataset, load_csv, minmax_scale, rng_for


# Every RunConfig field but ``pool`` (config file only) is a flag named after
# the field, except for the spellings below.
_FLAG_NAMES = {"data_path": "--data", "label_column": "--label-col",
               "use_balancing": "--no-balancing", "use_pruning": "--no-pruning"}
_FLAG_HELP = {"data_path": "dataset CSV path",
              "label_column": "label column name or zero-based index",
              "scale": "min-max scale features (fit on training data only)"}
_FLAG_CHOICES = {"threshold_mode": region.THRESHOLD_MODES}
_FLAG_FIELDS = tuple(f for f in fields(RunConfig) if f.name != "pool")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; explicit flags override it")
    for f in _FLAG_FIELDS:
        flag = _FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
        if isinstance(f.default, bool):  # a flag switches the default off or on
            p.add_argument(flag, dest=f.name, action="store_const", const=not f.default,
                           default=None, help=_FLAG_HELP.get(f.name))
        else:
            p.add_argument(flag, dest=f.name, choices=_FLAG_CHOICES.get(f.name),
                           type=str if f.default is None else type(f.default),
                           help=_FLAG_HELP.get(f.name))


def _build_config(args) -> RunConfig:
    cfg = load_config_file(args.config) if args.config else RunConfig()
    cfg = merge_config(cfg, {f.name: getattr(args, f.name) for f in _FLAG_FIELDS})
    if cfg.data_path is None:
        raise ValueError("--data (or a config file with data_path) is required")
    return cfg


def _load(cfg: RunConfig) -> Dataset:
    ds = load_csv(cfg.data_path, cfg.label_column)
    return minmax_scale(ds)[0] if cfg.scale else ds


def _write_csv(path, header, rows) -> None:
    """Write a header row and ``rows`` as CSV to ``path``, or to stdout when no path is given."""
    out = open(path, "w", newline="", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout)
    with out as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _dataset_table(ds: Dataset):
    """CSV header and rows of ``ds``: features f1..fz at six decimals, then the class name."""
    header = [f"f{i + 1}" for i in range(ds.n_features)] + ["class"]
    rows = ([f"{v:.6f}" for v in x] + [ds.class_names[y]] for x, y in zip(ds.features, ds.labels))
    return header, rows


def cmd_partition(args) -> int:
    cfg = _build_config(args)
    ds = _load(cfg)
    assignment = harness.partition_regions(ds, cfg)
    _write_csv(args.out, ["sample_index", "label", "tag", "max_own_posterior"],
               ([i, ds.class_names[ds.labels[i]], region.TAG_NAMES[assignment.tags[i]],
                 f"{assignment.max_own_posterior[i]:.6f}"] for i in range(ds.n_samples)))
    counts = assignment.counts()
    print(f"partition: {counts['core']} core, {counts['overlapping']} overlapping, "
          f"{counts['noisy']} noisy", file=sys.stderr)
    return 0


def cmd_clean(args) -> int:
    cfg = _build_config(args)
    ds = _load(cfg)
    keep = harness.clean(ds, harness.partition_regions(ds, cfg), cfg)
    cleaned = ds.subset(keep)
    for label, data in (("before:", ds), ("after: ", cleaned)):
        ratio = harness.overlap_ratio(data, cfg.or_knn_k)  # None: too few rows for or_knn_k neighbours
        print(f"overlap ratio {label} " + ("n/a" if ratio is None else f"{ratio * 100:.2f}%"))
    print(f"kept {cleaned.n_samples} of {ds.n_samples} samples")
    if args.out:
        _write_csv(args.out, *_dataset_table(cleaned))
    return 0


def cmd_balance(args) -> int:
    cfg = _build_config(args)
    ds = _load(cfg)
    keep = harness.clean(ds, harness.partition_regions(ds, cfg), cfg)
    result = harness.balance(ds, keep, cfg, lambda c: rng_for(cfg.seed, "omrp", c))
    out = result.dataset
    header, rows = _dataset_table(out)
    _write_csv(args.out, header + ["provenance"],
               (row + ["original" if s >= 0 else "synthetic"]
                for row, s in zip(rows, result.source_indices)))
    counts = ", ".join(f"{n}={c}" for n, c in zip(out.class_names, out.class_counts()))
    print(f"balanced class counts: {counts}", file=sys.stderr)
    return 0


def _print_aggregate(aggregate: dict, prefix: str = "") -> None:
    for key, ms in aggregate.items():
        print(f"{prefix}{key}: {ms['mean']:.4f} +/- {ms['std']:.4f}")


def _emit(report, path, fmt: str, prefix: str = "") -> int:
    """Write ``report`` and print its aggregate; exit code 1, and a note on stderr, if partial."""
    harness.emit_report(report, path, fmt=fmt)
    _print_aggregate(report.aggregate, prefix)
    if not report.partial:
        return 0
    aborted = sum(1 for fr in report.folds if fr.status != "ok")
    print(f"{prefix}partial report: {aborted} aborted fold(s)", file=sys.stderr)
    return 1


def cmd_run(args) -> int:
    cfg = _build_config(args)
    return _emit(harness.run_cv(cfg), args.out or f"report.{args.format}", args.format)


def _emit_sweep(args, outputs) -> int:
    """Write each (file stem, heading, report) of a sweep and print its heading and aggregate."""
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    rc = 0
    for stem, heading, rep in outputs:
        print(heading)
        rc |= _emit(rep, outdir / f"{stem}.{args.format}", args.format, prefix="   ")
    return rc


def cmd_ablate_noise(args) -> int:
    reports = harness.ablate_noise(_build_config(args), args.fractions)
    return _emit_sweep(args, [(_noise_stem(frac), f"-- noise fraction {frac:g}", rep)
                              for frac, rep in reports.items()])


def cmd_ablate_components(args) -> int:
    cfg = _build_config(args)
    reports = harness.ablate_components(cfg)
    return _emit_sweep(args, [(name, f"-- variant {name} (balancing={rep.config.use_balancing}, "
                                     f"pruning={rep.config.use_pruning})", rep)
                              for name, rep in reports.items()])


def _noise_stem(frac: float) -> str:
    """The report file stem of one noise-removal fraction."""
    return f"noise_{frac:g}"


def _fractions(text: str) -> tuple:
    """The ``--fractions`` value: comma-separated numbers whose report files differ, as a tuple of floats."""
    try:
        fractions = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    stems = [_noise_stem(f) for f in fractions]
    clashes = sorted({s for s in stems if stems.count(s) > 1})
    if clashes:
        raise argparse.ArgumentTypeError(f"fractions {text!r} share the report file(s) {', '.join(clashes)}")
    return fractions


def cmd_report(args) -> int:
    with open(args.input, encoding="utf-8") as f:
        doc = json.load(f)
    print(f"dataset: {doc['config'].get('data_path')}")
    print(f"folds: {len(doc.get('folds', []))} (partial={doc.get('partial')})")
    _print_aggregate(doc.get("aggregate", {}))
    ors = doc.get("overlap_ratios", {})
    if "before" in ors and "after" in ors:
        print(f"overlap ratio: {ors['before']['mean'] * 100:.2f}% -> {ors['after']['mean'] * 100:.2f}%")
    return 1 if doc.get("partial") else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="imbkit",
                                     description="imbalanced-learning pipeline: partition, clean, "
                                                 "balance, prune, cross-validate")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
        p.set_defaults(func=func)
        return p

    p = add("partition", cmd_partition, "tag every sample core/overlapping/noisy and dump as CSV")
    p.add_argument("--out", help="output CSV path (default stdout)")

    p = add("clean", cmd_clean, "run partition + overlap cleaning; report overlap-ratio change")
    p.add_argument("--out", help="write the cleaned dataset CSV here")

    p = add("balance", cmd_balance, "full-data cleaning + balancing; CSV with provenance column")
    p.add_argument("--out", help="output CSV path (default stdout)")

    p = add("run", cmd_run, "repeated stratified cross-validation of the full pipeline")
    p.add_argument("--out", help="report path (default report.<format>)")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = add("ablate-noise", cmd_ablate_noise, "re-run CV at several noise-removal fractions")
    p.add_argument("--fractions", type=_fractions, default=harness.DEFAULT_NOISE_FRACTIONS)
    p.add_argument("--out-dir", default="ablation_noise")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = add("ablate-components", cmd_ablate_components,
            "re-run CV without balancing, without pruning, and in full")
    p.add_argument("--out-dir", default="ablation_components")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("report", help="summarize an emitted JSON report")
    p.add_argument("input")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():  # Python's own warning display comes back on return
        warnings.showwarning = lambda message, category, *_: print(
            f"warning: {category.__name__}: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except Exception as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
