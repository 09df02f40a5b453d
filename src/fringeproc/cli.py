"""Command-line surface: simulate, train, infer, estimate, unwrap, demodulate,
evaluate, benchmark, pipeline.

Exit codes are a stable scripting contract: 0 success, 2 usage, 3 I/O or file
format, 4 numerical-stage failure. Every command accepts --seed and
--json-report. Each command that writes files ends in ``_record``, which writes
a JSON manifest next to its primary output with the fields ``tool``,
``version``, ``command`` and ``args`` (every parsed option) plus the command's
own results: enough to reproduce the outputs byte-identically. --json-report
writes the same JSON to a file or, with '-', to stdout; the one-line progress
message goes to stderr, so stdout stays valid JSON. Every file goes through
``container.write_atomic`` (temp file + rename), so none is left truncated.
FRINGEPROC_THREADS caps benchmark parallelism (default 1; a value that is not
a positive integer is a usage error).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .container import (read_container, read_orientation, read_sidecar, single_channel,
                         write_atomic, write_container, write_json)
from .errors import FormatError, NumericalError
from .hst import demodulate
from .maps import OrientationEncoding, OrientationMap
from .metrics import EvalReport, orientation_error, rmse_channels, rmse_phase, valid_fraction
from .network import NetworkConfig, infer_orientation, load_weights, save_weights
from .orientation import WindowSpec, cpfg_orientation, gradient_orientation, prefilter
from .simulate import (
    CarrierSpec,
    DatasetManifest,
    add_gaussian_noise,
    derive_seed,
    gen_blob_mask_phase,
    gen_carrier,
    gen_peaks_phase,
    ground_truth_direction,
    ground_truth_orientation,
    make_dataset,
    render_fringe,
    splitmix64,
)
from .training import TrainConfig, load_samples, train
from .unwrap import orientation_to_direction

EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


class StageError(Exception):
    """Wraps a failure with the pipeline stage it occurred in."""

    def __init__(self, stage: str, original: Exception):
        super().__init__(f"[{stage}] {original}")
        self.stage = stage
        self.original = original


class UsageError(Exception):
    """Arguments that parse but do not fit together (exit 2, as argparse)."""


def _emit_report(target, payload: dict) -> None:
    """Print the report JSON for '-', write it to any other non-empty target."""
    if target == "-":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif target:
        write_json(target, payload)


def _record(args, manifest_path, message: str, **fields) -> int:
    """The tail of every file-writing command: manifest, report, progress line."""
    recorded = {k: v for k, v in vars(args).items() if k not in ("func", "json_report")}
    payload = {"tool": "fringeproc", "version": __version__, "command": args.command,
               "args": recorded, **fields}
    write_json(manifest_path, payload)
    _emit_report(args.json_report, payload)
    print(message, file=sys.stderr)  # stdout carries only a '-' report
    return 0


def _file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_image(path) -> np.ndarray:
    """An FPAI file that must hold a single-channel image."""
    return single_channel(read_container(path), path)


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


# --------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    out = Path(args.out)
    if args.mode == "dataset":
        manifest = DatasetManifest(
            base_seed=args.seed,
            count=args.count,
            rows=args.rows,
            cols=args.cols,
            noise_std=args.noise_std,
        )
        path = make_dataset(manifest, out)
        return _record(args, out / "run_manifest.json",
                       f"wrote {manifest.count} items to {out}", manifest=str(path))

    # single object with full ground truth, for pipeline-style runs
    shape = (args.rows, args.cols)
    if args.object == "peaks":
        if args.rows != args.cols:
            raise UsageError("peaks objects require a square grid (--rows == --cols)")
        obj = gen_peaks_phase(args.rows, args.a)
    else:
        obj = gen_blob_mask_phase(shape, seed=args.seed, amplitude=args.a)
    phase = obj + gen_carrier(shape, CarrierSpec(args.period, args.theta))
    fringe = render_fringe(phase)
    if args.noise_std > 0:
        fringe = add_gaussian_noise(fringe, args.noise_std, seed=splitmix64(args.seed))
    fo = ground_truth_orientation(phase)
    beta = ground_truth_direction(phase)

    stem = out.with_suffix("")
    gt_paths = {
        "phase": stem.name + "_phase.fpai",
        "fo": stem.name + "_fo.fpai",
        "direction": stem.name + "_direction.fpai",
    }
    params = {
        "object": args.object, "a": args.a, "period_T": args.period,
        "theta": args.theta, "noise_std": args.noise_std,
        "rows": args.rows, "cols": args.cols,
    }
    write_container(out, fringe, meta={"kind": "fringe", "seed": args.seed,
                                       "params": params, "ground_truth": gt_paths})
    write_container(out.with_name(gt_paths["phase"]), phase,
                    meta={"kind": "phase", "seed": args.seed, "params": params})
    write_container(out.with_name(gt_paths["fo"]), fo.angles,
                    meta={"kind": "orientation", "seed": args.seed, "params": params})
    write_container(out.with_name(gt_paths["direction"]), beta,
                    meta={"kind": "direction", "seed": args.seed, "params": params})
    return _record(args, str(out) + ".manifest.json", f"wrote {out} (+ ground truth)",
                   outputs=[str(out)] + [str(out.with_name(p)) for p in gt_paths.values()])


# --------------------------------------------------------------------------
# train / infer


def cmd_train(args) -> int:
    samples = load_samples(args.dataset)
    if args.val_dataset:
        val = load_samples(args.val_dataset)
        trn = samples
    else:
        n_val = max(1, int(round(len(samples) * args.val_fraction)))
        if n_val >= len(samples):
            raise NumericalError("validation split leaves no training items")
        trn, val = samples[:-n_val], samples[-n_val:]
    net_cfg = NetworkConfig(paths=args.paths, filters=args.filters,
                            blocks_per_path=args.blocks)
    train_cfg = TrainConfig(initial_lr=args.lr, epochs=args.epochs,
                            batch_size=args.batch_size, shuffle_seed=args.seed)
    result = train(trn, val, net_cfg, train_cfg)
    save_weights(result.weights, args.out)
    history_path = str(args.out) + ".history.json"
    write_json(history_path, {"history": result.history, "best_epoch": result.best_epoch})
    return _record(
        args, str(args.out) + ".manifest.json",
        f"trained {args.epochs} epochs; best epoch {result.best_epoch}; model -> {args.out}",
        model=str(args.out), model_sha256=_file_sha256(args.out), history=history_path,
        train_items=len(trn), val_items=len(val), best_epoch=result.best_epoch,
        final_val_loss=result.history[-1]["val_loss"],
        final_val_oe=result.history[-1]["val_oe"])


def cmd_infer(args) -> int:
    weights = load_weights(args.model)
    img = _read_image(args.input)
    if args.prefilter:
        img = prefilter(img)
    fo = infer_orientation(weights, img)
    write_container(args.out, fo.angles, meta={
        "kind": "orientation", "seed": args.seed,
        "params": {"model": str(args.model), "prefilter": args.prefilter},
    })
    return _record(args, str(args.out) + ".manifest.json", f"wrote {args.out}",
                   model_sha256=_file_sha256(args.model),
                   valid_fraction=float(fo.valid.mean()), output=str(args.out))


# --------------------------------------------------------------------------
# classic estimation / unwrap / demodulate / evaluate


def cmd_orient_classic(args) -> int:
    img = _read_image(args.input)
    if args.prefilter:
        img = prefilter(img, background_sigma=args.background_sigma,
                        smooth_sigma=args.smooth_sigma)
    win = WindowSpec(args.window)
    estimator = gradient_orientation if args.method == "gradient" else cpfg_orientation
    fo = estimator(img, win)
    if args.exclude_border > 0:
        b = args.exclude_border
        border = np.zeros(fo.shape, dtype=bool)
        border[b:-b or None, b:-b or None] = True
        fo = OrientationMap(angles=np.where(border, fo.angles, 0.0),
                            valid=fo.valid & border)
    write_container(args.out, fo.angles, meta={
        "kind": "orientation", "seed": args.seed,
        "params": {"method": args.method, "window": args.window,
                   "exclude_border": args.exclude_border},
    })
    return _record(args, str(args.out) + ".manifest.json", f"wrote {args.out}",
                   valid_fraction=float(fo.valid.mean()), output=str(args.out))


def cmd_unwrap(args) -> int:
    fo = read_orientation(args.input)
    direction, anchor = orientation_to_direction(fo)
    write_container(args.out, direction, meta={
        "kind": "direction", "seed": args.seed,
        "params": {"source": str(args.input)},
    })
    return _record(args, str(args.out) + ".manifest.json",
                   f"wrote {args.out} (branch anchor at "
                   f"({anchor['row']}, {anchor['col']}) = {anchor['direction']:.4f} rad)",
                   branch_anchor=anchor, output=str(args.out))


def cmd_demodulate(args) -> int:
    fringe = _read_image(args.fringe)
    beta = _read_image(args.direction)
    wrapped, unwrapped, info = demodulate(fringe, beta)
    meta = {"kind": "phase", "seed": args.seed,
            "params": {"fringe": str(args.fringe), "direction": str(args.direction),
                       "exclude_border": args.exclude_border}}
    write_container(args.out_wrapped, wrapped, meta=meta)
    write_container(args.out_phase, unwrapped, meta=meta)
    for w in info["warnings"]:
        print(f"warning: {w}", file=sys.stderr)
    return _record(args, str(args.out_phase) + ".manifest.json",
                   f"wrote {args.out_wrapped}, {args.out_phase}",
                   warnings=info["warnings"], defined_fraction=info["defined_fraction"],
                   outputs=[str(args.out_wrapped), str(args.out_phase)])


def cmd_evaluate(args) -> int:
    border = args.exclude_border
    if args.metric == "oe":
        pred = read_orientation(args.pred)
        ref = read_orientation(args.ref)
        report = EvalReport(
            method=str(args.pred),
            orientation_error=orientation_error(pred, ref, border),
            excluded_border=border,
            valid_pixel_fraction=valid_fraction(pred, ref, border),
        )
    elif args.metric == "rmse-sin":
        pred = read_container(args.pred)
        ref = read_container(args.ref)
        r_sin, r_cos = rmse_channels(OrientationEncoding.from_array(pred),
                                     OrientationEncoding.from_array(ref))
        report = EvalReport(method=str(args.pred), rmse_sin=r_sin, rmse_cos=r_cos,
                            excluded_border=0)
    else:  # rmse-phase
        pred = _read_image(args.pred)
        ref = _read_image(args.ref)
        report = EvalReport(method=str(args.pred),
                            rmse_phase=rmse_phase(pred, ref, border),
                            excluded_border=border)
    payload = report.to_json()
    if not (args.json or args.json_report == "-"):
        print(", ".join(f"{k}={v}" for k, v in payload.items() if v is not None))
    elif args.json_report != "-":  # --json; a '-' report is printed once, below
        _emit_report("-", payload)
    _emit_report(args.json_report, payload)
    return 0


# --------------------------------------------------------------------------
# benchmark sweep (Fig. 5(a)-style)


def _benchmark_case(payload):
    """One sweep case: simulate, prefilter, run each method, return OE rows."""
    (a, noise_std, rep, case_seed, size, period, theta, window,
     methods, weights, emit_dir, border) = payload
    shape = (size, size)
    phase = gen_peaks_phase(size, a) + gen_carrier(shape, CarrierSpec(period, theta))
    fringe = render_fringe(phase)
    if noise_std > 0:
        fringe = add_gaussian_noise(fringe, noise_std, seed=case_seed)
    gt = ground_truth_orientation(phase)
    pre = prefilter(fringe)
    rows = []
    for method in methods:
        if method == "gradient":
            fo = gradient_orientation(pre, WindowSpec(window))
        elif method == "cpfg":
            fo = cpfg_orientation(pre, WindowSpec(window))
        else:
            fo = infer_orientation(weights, pre)
        oe = orientation_error(fo, gt, exclude_border=border)
        rows.append({"a": a, "noise_std": noise_std, "method": method,
                     "seed": case_seed, "oe": oe})
        if emit_dir is not None:
            err = np.abs(np.sin(2.0 * fo.angles) - np.sin(2.0 * gt.angles))
            name = f"errmap_a{a:g}_n{noise_std:g}_r{rep}_{method}.fpai"
            write_container(Path(emit_dir) / name, err,
                            meta={"kind": "error_map", "seed": case_seed,
                                  "params": {"a": a, "noise_std": noise_std,
                                             "method": method}})
    return rows


def _benchmark_workers() -> int:
    """FRINGEPROC_THREADS as a positive worker count (default 1)."""
    text = os.environ.get("FRINGEPROC_THREADS", "1")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise UsageError(f"FRINGEPROC_THREADS must be a positive integer, got {text!r}")
    return workers


def cmd_benchmark(args) -> int:
    workers = _benchmark_workers()
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in ("gradient", "cpfg", "deeporient"):
            raise NumericalError(f"unknown method {m!r}")
    if "deeporient" in methods and not args.model:
        raise NumericalError("method deeporient requires --model")
    if not args.a_values or not methods:
        raise NumericalError("empty sweep")
    # loaded once, and before any case runs so a bad file fails early
    weights = load_weights(args.model) if args.model else None

    if args.emit_error_maps:
        Path(args.emit_error_maps).mkdir(parents=True, exist_ok=True)
    cases = []
    case_idx = 0
    for a in args.a_values:
        for noise_std in args.noise_std:
            for rep in range(args.reps):
                case_seed = derive_seed(args.seed, case_idx)
                cases.append((a, noise_std, rep, case_seed, args.size,
                              args.period, args.theta, args.window, methods,
                              weights, args.emit_error_maps,
                              args.exclude_border))
                case_idx += 1

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            all_rows = list(pool.map(_benchmark_case, cases))
    else:
        all_rows = [_benchmark_case(c) for c in cases]

    out = Path(args.out)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["a", "noise_std", "method", "seed", "oe"])
    writer.writeheader()
    for rows in all_rows:
        for row in rows:
            writer.writerow(row)
    write_atomic(out, buf.getvalue().encode())

    n_rows = sum(len(r) for r in all_rows)
    extra = {"model_sha256": _file_sha256(args.model)} if args.model else {}
    return _record(args, str(out) + ".manifest.json", f"wrote {n_rows} rows to {out}",
                   cases=len(cases), rows=n_rows, output=str(out), **extra)


# --------------------------------------------------------------------------
# pipeline


def cmd_pipeline(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def stage(name, fn):
        try:
            return fn()
        except StageError:
            raise
        except Exception as exc:
            raise StageError(name, exc) from exc

    fringe = stage("load-fringe", lambda: _read_image(args.fringe))
    gt = (read_sidecar(args.fringe) or {}).get("ground_truth")
    if gt is not None and not (isinstance(gt, dict)
                               and all(isinstance(gt.get(k), str) for k in ("fo", "phase"))):
        raise FormatError(f"{args.fringe}: sidecar ground_truth needs 'fo' and 'phase' file names")
    weights = stage("load-model", lambda: load_weights(args.model))
    pre = stage("prefilter", lambda: prefilter(fringe))
    fo = stage("infer-orientation", lambda: infer_orientation(weights, pre))
    direction, anchor = stage("unwrap-direction", lambda: orientation_to_direction(fo))
    wrapped, unwrapped, info = stage("demodulate", lambda: demodulate(pre, direction))

    outputs = [(out_dir / "prefiltered.fpai", pre, "fringe"),
               (out_dir / "fo.fpai", fo.angles, "orientation"),
               (out_dir / "direction.fpai", direction, "direction"),
               (out_dir / "wrapped.fpai", wrapped, "phase"),
               (out_dir / "phase.fpai", unwrapped, "phase")]
    for path, data, kind in outputs:
        write_container(path, data, meta={"kind": kind})

    report = None
    sign_flipped = None
    if gt is not None:
        base = Path(args.fringe).parent

        def evaluate():
            fo_ref = read_orientation(base / gt["fo"])
            phase_ref = _read_image(base / gt["phase"])
            # the direction branch is inherently ambiguous; a flipped branch
            # negates the demodulated phase, so score the better global sign
            rmse_same = rmse_phase(unwrapped, phase_ref, args.exclude_border)
            rmse_flip = rmse_phase(-unwrapped, phase_ref, args.exclude_border)
            return rmse_flip < rmse_same, EvalReport(
                method="pipeline",
                orientation_error=orientation_error(fo, fo_ref, args.exclude_border),
                rmse_phase=min(rmse_same, rmse_flip),
                excluded_border=args.exclude_border,
                valid_pixel_fraction=valid_fraction(fo, fo_ref, args.exclude_border),
            )

        sign_flipped, report = stage("evaluate", evaluate)

    message = f"pipeline outputs in {out_dir}"
    if report:
        message = (f"OE={report.orientation_error:.4f} "
                   f"rmse_phase={report.rmse_phase:.4f} rad "
                   f"(border {report.excluded_border})\n" + message)
    return _record(args, out_dir / "run_manifest.json", message,
                   model_sha256=_file_sha256(args.model), branch_anchor=anchor,
                   phase_sign_flipped_vs_truth=sign_flipped, demodulation=info,
                   report=report.to_json() if report else None,
                   outputs=[str(path) for path, _, _ in outputs])


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fringeproc",
        description="Fringe orientation estimation and HST phase demodulation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0,
                       help="base seed recorded in the manifest")
        p.add_argument("--json-report", metavar="PATH",
                       help="write the run report JSON here ('-' for stdout)")

    p = sub.add_parser("simulate", help="generate a dataset or a single object")
    common(p)
    p.add_argument("--mode", choices=("dataset", "object"), default="dataset")
    p.add_argument("--out", required=True,
                   help="dataset directory, or fringe .fpai in object mode")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--rows", type=int, default=64)
    p.add_argument("--cols", type=int, default=64)
    p.add_argument("--noise-std", type=float, default=0.0)
    p.add_argument("--object", choices=("peaks", "blob"), default="peaks")
    p.add_argument("--a", type=float, default=1.0,
                   help="object amplitude (peaks coefficient / blob radians)")
    p.add_argument("--period", type=float, default=14.0)
    p.add_argument("--theta", type=float, default=0.0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train the orientation network")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--val-dataset")
    p.add_argument("--val-fraction", type=float, default=0.2)
    p.add_argument("--paths", type=int, default=2)
    p.add_argument("--filters", type=int, default=16)
    p.add_argument("--blocks", type=int, default=2)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=1)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="network orientation inference")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--prefilter", action=argparse.BooleanOptionalAction, default=False,
                   help="prefilter the input first (inputs are assumed prefiltered)")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("orient-classic", help="gradient / plane-fit estimation")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=("gradient", "cpfg"), default="cpfg")
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--exclude-border", type=int, default=0,
                   help="mark this border margin invalid in the output map")
    p.add_argument("--out", required=True)
    p.add_argument("--prefilter", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--background-sigma", type=float, default=None)
    p.add_argument("--smooth-sigma", type=float, default=0.5)
    p.set_defaults(func=cmd_orient_classic)

    p = sub.add_parser("unwrap-orientation", help="orientation -> direction lift")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_unwrap)

    p = sub.add_parser("demodulate", help="HST phase demodulation")
    common(p)
    p.add_argument("--fringe", required=True)
    p.add_argument("--direction", required=True)
    p.add_argument("--out-wrapped", required=True)
    p.add_argument("--out-phase", required=True)
    p.add_argument("--exclude-border", type=int, default=16)
    p.set_defaults(func=cmd_demodulate)

    p = sub.add_parser("evaluate", help="compare maps with OE / RMSE metrics")
    common(p)
    p.add_argument("--pred", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--metric", choices=("oe", "rmse-sin", "rmse-phase"),
                   default="oe")
    p.add_argument("--exclude-border", type=int, default=0)
    p.add_argument("--json", action="store_true", help="print the report as JSON")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("benchmark", help="peaks-modulation sweep (CSV)")
    common(p)
    p.add_argument("--a-values", type=_float_list,
                   default=[float(v) for v in range(11)])
    p.add_argument("--noise-std", type=_float_list, default=[0.0, 0.1])
    p.add_argument("--methods", default="gradient,cpfg")
    p.add_argument("--model", help="FPAW weights (required for deeporient)")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--size", type=int, default=512,
                   help="sweep grid side (512 reproduces the reference geometry)")
    p.add_argument("--period", type=float, default=14.0)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--exclude-border", type=int, default=8)
    p.add_argument("--emit-error-maps", metavar="DIR",
                   help="also write |sin 2FO - sin 2FO_gt| maps here")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("pipeline", help="fringe -> FO -> direction -> phase")
    common(p)
    p.add_argument("--fringe", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--exclude-border", type=int, default=16)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc.original, (FormatError, OSError)):
            return EXIT_IO
        return EXIT_NUMERICAL
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
