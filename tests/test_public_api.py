"""The public API is what the package's callers use.

``fringeproc.__all__`` is pinned name by name, so any change to the public
API shows as a diff of this file, and every public name must be referenced
by code outside its own module and outside the tests: the package's other
modules, the demos or the benchmark harness.
"""

import ast
import functools
import inspect
from pathlib import Path

import pytest

import fringeproc

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fringeproc"

PUBLIC = [
    "CarrierSpec", "DatasetManifest", "ModelWeights", "NetworkConfig",
    "OrientationEncoding", "OrientationMap", "TrainConfig", "WindowSpec",
    "adam_step", "add_gaussian_noise", "backward", "build_network",
    "cpfg_orientation", "decode_orientation", "demodulate", "encode_orientation",
    "forward", "gaussian_blur", "gen_blob_mask_phase", "gen_carrier",
    "gen_peaks_phase", "gradient_orientation", "ground_truth_direction",
    "ground_truth_orientation", "infer_orientation", "load_manifest",
    "load_samples", "load_weights", "make_dataset", "orientation_error",
    "orientation_to_direction", "prefilter", "quadrature", "read_container",
    "read_sidecar", "reliability_map", "render_fringe", "rmse_phase",
    "save_weights", "train", "unwrap_phase_2d", "write_container",
]


@functools.cache
def referenced_names(path: Path) -> set[str]:
    """Every name, attribute, imported name and string constant in path.

    String constants count because the benchmark harness patches its
    targets by name.
    """
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def caller_files() -> list[Path]:
    """The package's modules but ``__init__.py``, the demos and the
    benchmark harness, its own tests left out."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    files += [p for p in (ROOT / "perfbench").rglob("*.py")
              if "tests" not in p.relative_to(ROOT).parts]
    return files


EXPORTED = [name for name in fringeproc.__all__
            if not inspect.ismodule(getattr(fringeproc, name))]


def test_public_names_are_pinned():
    assert len(PUBLIC) == 42
    assert sorted(EXPORTED) == sorted(PUBLIC)


@pytest.mark.parametrize("name", EXPORTED)
def test_public_name_has_a_caller_outside_its_module(name):
    home = PACKAGE / (getattr(fringeproc, name).__module__.rsplit(".", 1)[-1] + ".py")
    callers = [path for path in caller_files() if path != home and name in referenced_names(path)]
    assert callers, f"{name} is referenced only by {home.name} and the tests"
