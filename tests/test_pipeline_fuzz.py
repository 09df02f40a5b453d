"""Mutated fringe, sidecar, model and ground-truth bytes of a whole ``pipeline``
run: ``main`` returns 0, 3 or 4 and lets nothing escape, with the suite's
RuntimeWarning-as-error setting on."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_readers_fuzz import MUTATION, _mutate, _retype, _retype_fpaw_header

from fringeproc.cli import main
from fringeproc.network import NetworkConfig, build_network, save_weights


@pytest.fixture(scope="module")
def pipeline_files(tmp_path_factory):
    """The run's directory and, per input, (path, valid bytes, JSON retyper)."""
    root = tmp_path_factory.mktemp("pipeline-fuzz")
    fringe = root / "obj.fpai"
    assert main(["simulate", "--mode", "object", "--out", str(fringe), "--a", "0.5",
                 "--rows", "32", "--cols", "32", "--seed", "5"]) == 0
    model = root / "tiny.fpaw"
    save_weights(build_network(NetworkConfig(paths=2, filters=2, blocks_per_path=1),
                               init_seed=3), model)
    paths = {"fringe": (fringe, None), "sidecar": (root / "obj.json", _retype),
             "model": (model, _retype_fpaw_header), "truth-fo": (root / "obj_fo.fpai", None),
             "truth-phase": (root / "obj_phase.fpai", None)}
    return root, {k: (p, p.read_bytes(), retype) for k, (p, retype) in paths.items()}


@pytest.mark.parametrize("target", ["fringe", "sidecar", "model", "truth-fo", "truth-phase"])
@settings(max_examples=100, deadline=None)
@given(mutations=st.lists(MUTATION, min_size=1, max_size=3))
def test_mutated_pipeline_input_exits_cleanly(pipeline_files, target, mutations):
    root, inputs = pipeline_files
    path, raw, retype = inputs[target]
    path.write_bytes(_mutate(raw, mutations, retype))
    try:
        code = main(["pipeline", "--fringe", str(root / "obj.fpai"),
                     "--model", str(root / "tiny.fpaw"), "--out-dir", str(root / "run"),
                     "--exclude-border", "8"])
    finally:
        path.write_bytes(raw)
    assert code in (0, 3, 4)
