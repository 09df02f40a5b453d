"""List the sha256 of every payload file the nine CLI commands write.

    python tests/payload_hashes.py OUT_DIR
    python tests/payload_hashes.py --compare DIR_A DIR_B

runs simulate, train, infer, orient-classic, unwrap-orientation, demodulate,
evaluate, benchmark and pipeline in-process on fixed seeds at 32-64 px, in the
new directory OUT_DIR, with a small model that ``train`` writes first. It then
prints one ``sha256  relative-path`` line for every FPAI, FPAW and CSV file,
sorted by path, and for each ``evaluate`` report line (``*.txt``). Sidecars and
run manifests (``*.json``) are left out: they record the command's options.

The package comes from the ``src`` directory beside this file's directory, so
two checkouts' listings compare with ``diff``: equal listings mean
byte-identical outputs. BLAS runs on one thread, so the bytes do not depend on
the machine's core count.

With ``--compare`` it runs nothing. For every payload whose sha256 differs
between two such directories it prints ``difference  relative-path``, sorted
by path: the largest absolute difference between the two files' samples.
FPAI and FPAW samples are read with the package's readers; a CSV file or
report is split at commas, ``=`` and white space, and its numeric fields are
compared. A payload found in one directory only, or whose sample count or
non-numeric fields differ, prints ``missing`` or ``layout`` instead.

The script is not a pytest module; ``test_cli.py`` runs it twice and
compares the listings, and checks ``--compare``.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fringeproc.cli import main  # noqa: E402
from fringeproc.container import read_container  # noqa: E402
from fringeproc.network import load_weights  # noqa: E402

OBJ = ["--mode", "object", "--rows", "64", "--cols", "64"]

# (stdout file or None, argv); paths are relative to OUT_DIR
RUNS = [
    (None, ["simulate", "--mode", "dataset", "--count", "6", "--rows", "32", "--cols", "32",
            "--noise-std", "0.05", "--seed", "11", "--out", "ds"]),
    (None, ["train", "--dataset", "ds", "--filters", "4", "--blocks", "1", "--epochs", "2",
            "--lr", "1e-3", "--seed", "3", "--out", "model.fpaw"]),
    (None, ["simulate", *OBJ, "--object", "peaks", "--a", "1.2", "--noise-std", "0.05",
            "--seed", "5", "--out", "peaks.fpai"]),
    (None, ["simulate", "--mode", "object", "--rows", "48", "--cols", "64", "--object", "blob",
            "--a", "3", "--period", "9", "--theta", "0.6", "--seed", "6", "--out", "blob.fpai"]),
    # 2T under an eighth of the side: the prefilter blurs the background
    (None, ["simulate", *OBJ, "--object", "peaks", "--a", "0.5", "--period", "3.5",
            "--seed", "7", "--out", "fine.fpai"]),
    (None, ["orient-classic", "--input", "peaks.fpai", "--out", "fo_cpfg.fpai"]),
    (None, ["orient-classic", "--input", "peaks.fpai", "--method", "gradient",
            "--no-prefilter", "--out", "fo_gradient_raw.fpai"]),
    (None, ["orient-classic", "--input", "blob.fpai", "--window", "3",
            "--out", "fo_blob_w3.fpai"]),
    (None, ["infer", "--model", "model.fpaw", "--input", "peaks.fpai", "--prefilter",
            "--out", "fo_net.fpai"]),
    (None, ["infer", "--model", "model.fpaw", "--input", "peaks.fpai",
            "--out", "fo_net_raw.fpai"]),
    (None, ["orient-classic", "--input", "fine.fpai", "--out", "fo_fine.fpai"]),
    (None, ["infer", "--model", "model.fpaw", "--input", "fine.fpai", "--prefilter",
            "--out", "fo_net_fine.fpai"]),
    (None, ["unwrap-orientation", "--input", "fo_cpfg.fpai", "--out", "direction.fpai"]),
    (None, ["demodulate", "--fringe", "peaks.fpai", "--direction", "direction.fpai",
            "--out-wrapped", "wrapped.fpai", "--out-phase", "phase.fpai"]),
    ("evaluate_oe.txt", ["evaluate", "--pred", "fo_cpfg.fpai", "--ref", "peaks_fo.fpai",
                         "--exclude-border", "8"]),
    ("evaluate_rmse_phase.txt", ["evaluate", "--metric", "rmse-phase", "--pred", "phase.fpai",
                                 "--ref", "peaks_phase.fpai", "--exclude-border", "8"]),
    ("evaluate_rmse_sin.txt", ["evaluate", "--metric", "rmse-sin",
                               "--pred", "ds/item_0000_encoding.fpai",
                               "--ref", "ds/item_0001_encoding.fpai"]),
    (None, ["benchmark", "--size", "32", "--a-values", "0,1.5", "--noise-std", "0,0.1",
            "--reps", "1", "--methods", "gradient,cpfg,deeporient", "--model", "model.fpaw",
            "--exclude-border", "4", "--emit-error-maps", "maps", "--seed", "9",
            "--out", "sweep.csv"]),
    (None, ["pipeline", "--fringe", "peaks.fpai", "--model", "model.fpaw",
            "--out-dir", "pipeline_peaks"]),
    (None, ["pipeline", "--fringe", "blob.fpai", "--model", "model.fpaw",
            "--out-dir", "pipeline_blob"]),
]

PAYLOADS = (".fpai", ".fpaw", ".csv", ".txt")


def run_all(out_dir: Path) -> None:
    """Run every command in out_dir; raise on the first non-zero exit."""
    for stdout_name, argv in RUNS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"exit {code}: fringeproc {' '.join(argv)}\n{err.getvalue()}")
        if stdout_name:
            (out_dir / stdout_name).write_text(out.getvalue())


def hashes(out_dir: Path) -> dict[str, str]:
    """sha256 of every payload, keyed by its path relative to out_dir."""
    return {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.suffix in PAYLOADS}


def listing(out_dir: Path) -> list[str]:
    return [f"{digest}  {path}" for path, digest in hashes(out_dir).items()]


def fields(path: Path) -> tuple[np.ndarray, list[str]]:
    """A payload's numeric samples and its non-numeric fields."""
    if path.suffix == ".fpai":
        return read_container(path).ravel(), []
    if path.suffix == ".fpaw":
        tensors = load_weights(path).tensors.values()
        return np.concatenate([t.ravel() for t in tensors]), []
    values, words = [], []
    for token in re.split(r"[\s,=]+", path.read_text()):
        try:
            values.append(float(token))
        except ValueError:
            words.append(token)
    return np.array(values), words


def difference(a: Path, b: Path) -> str:
    """The largest absolute sample difference of two payloads, or ``layout``."""
    (values_a, words_a), (values_b, words_b) = fields(a), fields(b)
    if values_a.shape != values_b.shape or words_a != words_b:
        return "layout"
    same = (values_a == values_b) | (np.isnan(values_a) & np.isnan(values_b))
    return f"{float(np.where(same, 0.0, np.abs(values_a - values_b)).max(initial=0.0)):.6g}"


def compare(dir_a: Path, dir_b: Path) -> list[str]:
    """One ``difference  path`` line for every payload whose sha256 differs."""
    hashes_a, hashes_b = hashes(dir_a), hashes(dir_b)
    lines = []
    for path in sorted(hashes_a.keys() | hashes_b.keys()):
        if hashes_a.get(path) == hashes_b.get(path):
            continue
        both = path in hashes_a and path in hashes_b
        lines.append(f"{difference(dir_a / path, dir_b / path) if both else 'missing'}  {path}")
    return lines


def main_script(argv) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        for line in compare(Path(argv[1]), Path(argv[2])):
            print(line)
        return 0
    if len(argv) != 1:
        print("\n".join(line.strip() for line in __doc__.splitlines()[2:4]), file=sys.stderr)
        return 2
    out_dir = Path(argv[0]).resolve()
    out_dir.mkdir(parents=True)  # a fresh directory, so every file is this run's
    os.chdir(out_dir)
    run_all(out_dir)
    print("\n".join(listing(out_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main_script(sys.argv[1:]))
