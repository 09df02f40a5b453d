"""Mutated FPAI, FPAW, sidecar and dataset-manifest bytes: every read either
returns or raises a FormatError subclass, and warns about nothing."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fringeproc.container import read_container, read_sidecar, write_container
from fringeproc.errors import FormatError
from fringeproc.network import NetworkConfig, build_network, load_weights, save_weights
from fringeproc.simulate import DatasetManifest, load_manifest, make_dataset

SNAN = (0x7F800001).to_bytes(4, "little")  # float32 signalling NaN

# JSON values of every type; a retyped key takes one whose type differs
VALUES = [None, True, 7, 2.5, "x", [], [1, 2], {}, {"a": 1}]

MUTATION = st.one_of(
    st.tuples(st.just("write"), st.integers(0, 1 << 16), st.binary(min_size=1, max_size=4)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 16)),
    st.tuples(st.just("insert"), st.integers(0, 1 << 16), st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("retype"), st.integers(0, 64), st.integers(0, 64)),
)


def _retype(doc: bytes, key_pick: int, value_pick: int) -> bytes:
    """doc with one top-level value replaced by a value of another type."""
    try:
        obj = json.loads(doc)
    except ValueError:
        return doc
    if not isinstance(obj, dict) or not obj:
        return doc
    key = list(obj)[key_pick % len(obj)]
    others = [v for v in VALUES if type(v) is not type(obj[key])]
    obj[key] = others[value_pick % len(others)]
    return json.dumps(obj).encode()


def _retype_fpaw_header(raw: bytes, key_pick: int, value_pick: int) -> bytes:
    json_len = int.from_bytes(raw[8:12], "little")
    if len(raw) < 12 + json_len:
        return raw
    header = _retype(raw[12 : 12 + json_len], key_pick, value_pick)
    return raw[:8] + len(header).to_bytes(4, "little") + header + raw[12 + json_len :]


def _mutate(raw: bytes, mutations, retype) -> bytes:
    data = bytearray(raw)
    for op, at, *arg in mutations:
        n = len(data)
        if op == "write" and n:
            i = at % n
            data[i : i + len(arg[0])] = arg[0]
        elif op == "truncate" and n:
            del data[at % n :]
        elif op == "insert":
            data[at % (n + 1) : at % (n + 1)] = arg[0]
        elif op == "retype" and retype is not None:
            data = bytearray(retype(bytes(data), at, arg[0]))
    return bytes(data)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Per format: (path to write, valid bytes, reader, JSON retyper)."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    fpai = root / "img.fpai"
    write_container(fpai, rng.standard_normal((8, 8)),
                    meta={"kind": "fringe", "seed": 5, "params": {"period_T": 14.0},
                          "ground_truth": {"fo": "img_fo.fpai", "phase": "img_phase.fpai"}})
    fpaw = root / "m.fpaw"
    save_weights(build_network(NetworkConfig(paths=2, filters=2, blocks_per_path=1,
                                             kernel_size=1), init_seed=3), fpaw)
    manifest = make_dataset(DatasetManifest(base_seed=4, count=2, rows=16, cols=16),
                            root / "ds")
    sidecar = fpai.with_suffix(".json")
    return {
        "fpai": (fpai, fpai.read_bytes(), read_container, None),
        "fpaw": (fpaw, fpaw.read_bytes(), load_weights, _retype_fpaw_header),
        "sidecar": (sidecar, sidecar.read_bytes(), lambda _: read_sidecar(fpai), _retype),
        "manifest": (manifest, manifest.read_bytes(), load_manifest, _retype),
    }


@pytest.mark.parametrize("fmt", ["fpai", "fpaw", "sidecar", "manifest"])
@settings(max_examples=200, deadline=None)
@given(mutations=st.lists(MUTATION, min_size=1, max_size=3))
@example(mutations=[("write", -4, SNAN)])  # the last float32 sample, for FPAI and FPAW
def test_mutated_file_loads_or_raises_format_error(files, fmt, mutations):
    path, raw, read, retype = files[fmt]
    path.write_bytes(_mutate(raw, mutations, retype))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            read(path)
        except FormatError:
            pass
