"""Command-line surface: simulate, train, infer, estimate, unwrap, demodulate,
evaluate, benchmark, pipeline.

Exit codes are a stable scripting contract: 0 success, 2 usage, 3 I/O or file
format, 4 numerical-stage failure. Every command accepts --seed and
--json-report. Each command that writes files hands them to ``_record``, the
one writer of a command's outputs. It writes every image as FPAI with a sidecar
holding its ``kind``, the ``seed`` and ``params`` (the command's options), then
a JSON manifest next to the primary output with the fields ``tool``,
``version``, ``command``, ``args`` (every parsed option, the same as the
sidecars' ``params``), ``outputs`` (every written path), ``model_sha256`` when
a model is read or written, and the command's own results: enough to reproduce
the outputs byte-identically. --json-report writes the same JSON to a file or,
with '-', to stdout; the one-line progress message goes to stderr, so stdout
stays valid JSON. ``evaluate`` writes no file; it prints its report as one
``key=value`` line, or as JSON through --json-report. Every file goes through
``container.write_atomic`` (temp file + rename), so none is left truncated,
and ``_record`` checks every image before it writes the first, so an image
FPAI cannot store leaves no output behind. ``benchmark`` runs the reference
sweep geometry (``SWEEP_CARRIER``, ``SWEEP_WINDOW``); ``train`` validates on
the --val-fraction tail of its dataset at batch size 1.
FRINGEPROC_THREADS caps benchmark parallelism (default 1; a value that is not
a positive integer is a usage error, as is an unknown --methods name or a
sweep with no cases). So is any option value that can never work, such as
--window 1 or --rows 0: each command builds its specs from the options first,
so such a value exits 2 before any file is written. Commands raise; ``main``
alone maps an exception to its exit code and prints it as one ``error:`` line.
``main`` runs the command with numpy's ``RuntimeWarning`` raised as an error,
so an overflow is such a line (exit 4), never a warning with its source line.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import itertools
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .container import (encode_samples, read_container, read_encoding, read_orientation,
                         read_sidecar, single_channel, write_atomic, write_container,
                         write_json)
from .errors import FormatError, NumericalError
from .hst import demodulate
from .image import MIN_ESTIMATOR_SIZE
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

# the classical orientation estimators, by their --method / --methods name
ESTIMATORS = {"gradient": gradient_orientation, "cpfg": cpfg_orientation}

# the benchmark sweep's one geometry, the reference protocol's: a 14 px
# carrier at azimuth 0, estimated with 2x2 windows
SWEEP_CARRIER = CarrierSpec(14.0, 0.0)
SWEEP_WINDOW = WindowSpec(2)


class UsageError(Exception):
    """Arguments that parse but do not fit together (exit 2, as argparse)."""


def _usage(build, *args, **kwargs):
    """build(*args, **kwargs), where a ValueError means options that can never work."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _emit_report(target, payload: dict) -> None:
    """Print the report JSON for '-', write it to any other non-empty target."""
    if target == "-":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif target:
        write_json(target, payload)


def _record(args, manifest_path, message: str, images=(), files=(), **fields) -> int:
    """The one writer of a command's outputs.

    Writes each ``(path, array, meta)`` image as FPAI with the sidecar
    ``{"seed", "params", **meta}``, then the manifest listing every image and
    every already-written path in ``files`` under ``outputs``, then the report
    and the progress line. Every image is checked before the first is written,
    so an image FPAI cannot store leaves none of them behind.
    """
    recorded = {k: v for k, v in vars(args).items() if k not in ("func", "json_report")}
    for path, data, _ in images:
        encode_samples(data, path)
    for path, data, meta in images:
        write_container(path, data, meta={"seed": args.seed, "params": recorded, **meta})
    if getattr(args, "model", None):  # every command that reads a model
        fields["model_sha256"] = _file_sha256(args.model)
    payload = {"tool": "fringeproc", "version": __version__, "command": args.command,
               "args": recorded, **fields,
               "outputs": [str(path) for path, _, _ in images] + [str(f) for f in files]}
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


def _number(kind, accept, bound: str):
    """An argparse type: a ``kind`` value for which ``accept`` holds, else
    'must be {bound}' (NaN fails every comparison, so it is never accepted)."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad {kind.__name__} {text!r}") from exc
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text!r}")
        return value
    return parse


def _at_least(low: int):
    """An integer that is at least ``low``."""
    return _number(int, lambda v: v >= low, "non-negative" if low == 0 else f"at least {low}")


_non_negative = _number(float, lambda v: 0 <= v < np.inf, "non-negative and finite")


def _non_negative_list(text: str) -> list[float]:
    return [_non_negative(tok) for tok in text.split(",") if tok.strip() != ""]


def _methods(text: str) -> list[str]:
    """A non-empty comma list of ESTIMATORS names and deeporient."""
    methods = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not methods or not set(methods) <= {*ESTIMATORS, "deeporient"}:
        raise argparse.ArgumentTypeError(
            f"bad method list {text!r}: choose from {', '.join(ESTIMATORS)}, deeporient")
    return methods


# --------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    out = Path(args.out)
    if args.mode == "dataset":
        manifest = _usage(DatasetManifest, base_seed=args.seed, count=args.count,
                          rows=args.rows, cols=args.cols, noise_std=args.noise_std)
        path = make_dataset(manifest, out)
        return _record(args, out / "run_manifest.json",
                       f"wrote {manifest.count} items to {out}", files=[path])

    # single object with full ground truth, for pipeline-style runs
    carrier = _usage(CarrierSpec, args.period, args.theta)
    shape = (args.rows, args.cols)
    if args.object == "peaks":
        if args.rows != args.cols:
            raise UsageError("peaks objects require a square grid (--rows == --cols)")
        obj = gen_peaks_phase(args.rows, args.a)
    else:
        obj = gen_blob_mask_phase(shape, seed=args.seed, amplitude=args.a)
    phase = obj + gen_carrier(shape, carrier)
    fringe = add_gaussian_noise(render_fringe(phase), args.noise_std,
                                seed=splitmix64(args.seed))
    truth = [("phase", phase, "phase"),
             ("fo", ground_truth_orientation(phase).angles, "orientation"),
             ("direction", ground_truth_direction(phase), "direction")]
    stem = out.with_suffix("").name
    gt_paths = {key: f"{stem}_{key}.fpai" for key, _, _ in truth}
    images = [(out, fringe, {"kind": "fringe", "ground_truth": gt_paths})]
    images += [(out.with_name(gt_paths[key]), data, {"kind": kind})
               for key, data, kind in truth]
    return _record(args, str(out) + ".manifest.json", f"wrote {out} (+ ground truth)",
                   images)


# --------------------------------------------------------------------------
# train / infer


def cmd_train(args) -> int:
    net_cfg = _usage(NetworkConfig, paths=args.paths, filters=args.filters,
                     blocks_per_path=args.blocks)
    train_cfg = _usage(TrainConfig, initial_lr=args.lr, epochs=args.epochs,
                       shuffle_seed=args.seed)
    samples = load_samples(args.dataset)
    n_val = max(1, int(round(len(samples) * args.val_fraction)))
    if n_val >= len(samples):
        raise NumericalError("validation split leaves no training items")
    trn, val = samples[:-n_val], samples[-n_val:]
    result = train(trn, val, net_cfg, train_cfg)
    save_weights(result.weights, args.out)
    history_path = str(args.out) + ".history.json"
    write_json(history_path, {"history": result.history, "best_epoch": result.best_epoch})
    return _record(
        args, str(args.out) + ".manifest.json",
        f"trained {args.epochs} epochs; best epoch {result.best_epoch}; model -> {args.out}",
        files=[args.out, history_path], model_sha256=_file_sha256(args.out),
        train_items=len(trn), val_items=len(val), best_epoch=result.best_epoch,
        final_val_loss=result.history[-1]["val_loss"],
        final_val_oe=result.history[-1]["val_oe"])


def cmd_infer(args) -> int:
    weights = load_weights(args.model)
    img = _read_image(args.input)
    if args.prefilter:
        img = prefilter(img)
    fo = infer_orientation(weights, img)
    return _record(args, str(args.out) + ".manifest.json", f"wrote {args.out}",
                   [(args.out, fo.angles, {"kind": "orientation"})],
                   valid_fraction=float(fo.valid.mean()))


# --------------------------------------------------------------------------
# classic estimation / unwrap / demodulate / evaluate


def cmd_orient_classic(args) -> int:
    window = _usage(WindowSpec, args.window)
    img = _read_image(args.input)
    if args.prefilter:
        img = prefilter(img)
    fo = ESTIMATORS[args.method](img, window)
    return _record(args, str(args.out) + ".manifest.json", f"wrote {args.out}",
                   [(args.out, fo.angles, {"kind": "orientation"})],
                   valid_fraction=float(fo.valid.mean()))


def cmd_unwrap(args) -> int:
    fo = read_orientation(args.input)
    direction, anchor = orientation_to_direction(fo)
    return _record(args, str(args.out) + ".manifest.json",
                   f"wrote {args.out} (branch anchor at "
                   f"({anchor['row']}, {anchor['col']}) = {anchor['direction']:.4f} rad)",
                   [(args.out, direction, {"kind": "direction"})], branch_anchor=anchor)


def cmd_demodulate(args) -> int:
    fringe = _read_image(args.fringe)
    beta = _read_image(args.direction)
    wrapped, unwrapped, info = demodulate(fringe, beta)
    for w in info["warnings"]:
        print(f"warning: {w}", file=sys.stderr)
    return _record(args, str(args.out_phase) + ".manifest.json",
                   f"wrote {args.out_wrapped}, {args.out_phase}",
                   [(args.out_wrapped, wrapped, {"kind": "phase"}),
                    (args.out_phase, unwrapped, {"kind": "phase"})],
                   warnings=info["warnings"], defined_fraction=info["defined_fraction"])


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
        if border:
            raise UsageError("--metric rmse-sin scores every pixel: --exclude-border must be 0")
        r_sin, r_cos = rmse_channels(read_encoding(args.pred), read_encoding(args.ref))
        report = EvalReport(method=str(args.pred), rmse_sin=r_sin, rmse_cos=r_cos,
                            excluded_border=0)
    else:  # rmse-phase
        pred = _read_image(args.pred)
        ref = _read_image(args.ref)
        report = EvalReport(method=str(args.pred),
                            rmse_phase=rmse_phase(pred, ref, border),
                            excluded_border=border)
    payload = report.to_json()
    if args.json_report != "-":
        print(", ".join(f"{k}={v}" for k, v in payload.items() if v is not None))
    _emit_report(args.json_report, payload)
    return 0


# --------------------------------------------------------------------------
# benchmark sweep (Fig. 5(a)-style)


def _benchmark_case(args, weights, case):
    """One sweep case (a, noise_std, rep, seed): simulate, prefilter, run each
    method, return OE rows."""
    a, noise_std, rep, case_seed = case
    size = args.size
    phase = gen_peaks_phase(size, a) + gen_carrier((size, size), SWEEP_CARRIER)
    fringe = add_gaussian_noise(render_fringe(phase), noise_std, seed=case_seed)
    gt = ground_truth_orientation(phase)
    pre = prefilter(fringe)
    rows = []
    for method in args.methods:
        if method == "deeporient":
            fo = infer_orientation(weights, pre)
        else:
            fo = ESTIMATORS[method](pre, SWEEP_WINDOW)
        oe = orientation_error(fo, gt, exclude_border=args.exclude_border)
        rows.append({"a": a, "noise_std": noise_std, "method": method,
                     "seed": case_seed, "oe": oe})
        if args.emit_error_maps:
            err = np.abs(np.sin(2.0 * fo.angles) - np.sin(2.0 * gt.angles))
            name = f"errmap_a{a:g}_n{noise_std:g}_r{rep}_{method}.fpai"
            write_container(Path(args.emit_error_maps) / name, err,
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
    import csv  # only the sweep writes CSV, so other commands start without it

    workers = _benchmark_workers()
    cases = [(a, noise_std, rep, derive_seed(args.seed, i)) for i, (a, noise_std, rep)
             in enumerate(itertools.product(args.a_values, args.noise_std, range(args.reps)))]
    if not cases:
        raise UsageError("empty sweep: --a-values and --noise-std need a value each "
                         "and --reps must be positive")
    if "deeporient" in args.methods and not args.model:
        raise UsageError("method deeporient requires --model")
    if 2 * args.exclude_border >= args.size:
        raise UsageError(f"--exclude-border {args.exclude_border} leaves no pixels "
                         f"of a {args.size} px grid")
    # loaded once, and before any case runs so a bad file fails early
    weights = load_weights(args.model) if args.model else None
    if weights and "deeporient" in args.methods:
        _usage(weights.config.check_input_shape, (args.size, args.size))

    if args.emit_error_maps:
        Path(args.emit_error_maps).mkdir(parents=True, exist_ok=True)
    run_case = functools.partial(_benchmark_case, args, weights)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a parallel sweep loads it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            all_rows = list(pool.map(run_case, cases))
    else:
        all_rows = list(map(run_case, cases))

    out = Path(args.out)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["a", "noise_std", "method", "seed", "oe"])
    writer.writeheader()
    for rows in all_rows:
        for row in rows:
            writer.writerow(row)
    write_atomic(out, buf.getvalue().encode())

    n_rows = sum(len(r) for r in all_rows)
    return _record(args, str(out) + ".manifest.json", f"wrote {n_rows} rows to {out}",
                   files=[out] + ([args.emit_error_maps] if args.emit_error_maps else []),
                   cases=len(cases), rows=n_rows)


# --------------------------------------------------------------------------
# pipeline


def cmd_pipeline(args) -> int:
    out_dir = Path(args.out_dir)
    fringe = _read_image(args.fringe)
    gt = (read_sidecar(args.fringe) or {}).get("ground_truth")
    if gt is not None and not (isinstance(gt, dict)
                               and all(isinstance(gt.get(k), str) for k in ("fo", "phase"))):
        raise FormatError(f"{args.fringe}: sidecar ground_truth needs 'fo' and 'phase' file names")
    weights = load_weights(args.model)
    pre = prefilter(fringe)
    fo = infer_orientation(weights, pre)
    direction, anchor = orientation_to_direction(fo)
    wrapped, unwrapped, info = demodulate(pre, direction)

    report = sign_flipped = None
    if gt is not None:
        base = Path(args.fringe).parent
        border = args.exclude_border
        fo_ref = read_orientation(base / gt["fo"])
        phase_ref = _read_image(base / gt["phase"])
        # the direction branch is inherently ambiguous; a flipped branch
        # negates the demodulated phase, so score the better global sign
        rmse_same = rmse_phase(unwrapped, phase_ref, border)
        rmse_flip = rmse_phase(-unwrapped, phase_ref, border)
        sign_flipped = rmse_flip < rmse_same
        report = EvalReport(method="pipeline",
                            orientation_error=orientation_error(fo, fo_ref, border),
                            rmse_phase=min(rmse_same, rmse_flip), excluded_border=border,
                            valid_pixel_fraction=valid_fraction(fo, fo_ref, border))

    message = f"pipeline outputs in {out_dir}"
    if report:
        message = (f"OE={report.orientation_error:.4f} "
                   f"rmse_phase={report.rmse_phase:.4f} rad "
                   f"(border {report.excluded_border})\n" + message)
    images = [(out_dir / name, data, {"kind": kind}) for name, data, kind in (
        ("prefiltered.fpai", pre, "fringe"), ("fo.fpai", fo.angles, "orientation"),
        ("direction.fpai", direction, "direction"), ("wrapped.fpai", wrapped, "phase"),
        ("phase.fpai", unwrapped, "phase"))]
    out_dir.mkdir(parents=True, exist_ok=True)
    return _record(args, out_dir / "run_manifest.json", message, images,
                   branch_anchor=anchor, phase_sign_flipped_vs_truth=sign_flipped,
                   demodulation=info, report=report.to_json() if report else None)


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
    p.add_argument("--rows", type=_at_least(2), default=64)
    p.add_argument("--cols", type=_at_least(2), default=64)
    p.add_argument("--noise-std", type=_non_negative, default=0.0)
    p.add_argument("--object", choices=("peaks", "blob"), default="peaks")
    p.add_argument("--a", type=_non_negative, default=1.0,
                   help="object amplitude (peaks coefficient / blob radians)")
    p.add_argument("--period", type=float, default=14.0)
    p.add_argument("--theta", type=float, default=0.0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train the orientation network")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--val-fraction", default=0.2,
                   type=_number(float, lambda v: 0 < v < 1, "strictly between 0 and 1"))
    p.add_argument("--paths", type=int, default=2)
    p.add_argument("--filters", type=int, default=16)
    p.add_argument("--blocks", type=int, default=2)
    p.add_argument("--epochs", type=int, default=10)
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
    p.add_argument("--method", choices=ESTIMATORS, default="cpfg")
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--out", required=True)
    p.add_argument("--prefilter", action=argparse.BooleanOptionalAction, default=True)
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
    p.set_defaults(func=cmd_demodulate)

    p = sub.add_parser("evaluate", help="compare maps with OE / RMSE metrics")
    common(p)
    p.add_argument("--pred", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--metric", choices=("oe", "rmse-sin", "rmse-phase"),
                   default="oe")
    p.add_argument("--exclude-border", type=_at_least(0), default=0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("benchmark", help="peaks-modulation sweep (CSV)")
    common(p)
    p.add_argument("--a-values", type=_non_negative_list,
                   default=[float(v) for v in range(11)])
    p.add_argument("--noise-std", type=_non_negative_list, default=[0.0, 0.1])
    p.add_argument("--methods", type=_methods, default="gradient,cpfg")
    p.add_argument("--model", help="FPAW weights (required for deeporient)")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--size", type=_at_least(MIN_ESTIMATOR_SIZE), default=512,
                   help="sweep grid side (512 reproduces the reference geometry)")
    p.add_argument("--exclude-border", type=_at_least(0), default=8)
    p.add_argument("--emit-error-maps", metavar="DIR",
                   help="also write |sin 2FO - sin 2FO_gt| maps here")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("pipeline", help="fringe -> FO -> direction -> phase")
    common(p)
    p.add_argument("--fringe", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--exclude-border", type=_at_least(0), default=16)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():  # a numpy overflow is an error line, not a warning
            warnings.simplefilter("error", RuntimeWarning)
            return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericalError, ValueError, MemoryError, RuntimeWarning) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
