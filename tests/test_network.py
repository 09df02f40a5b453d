import json
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from fringeproc import network
from fringeproc.errors import (
    BadMagicError,
    HeaderError,
    ShapeAuditError,
    TruncatedPayloadError,
    VersionMismatchError,
)
from fringeproc.maps import OrientationEncoding, decode_orientation
from fringeproc.network import (
    NetworkConfig,
    _forward,
    _maxpool2_values,
    backward,
    build_network,
    conv2d_backward,
    conv2d_same,
    forward,
    infer_orientation,
    load_weights,
    maxpool2,
    maxpool2_backward,
    save_weights,
    tensor_specs,
)
from fringeproc.training import loss_mse

TINY = NetworkConfig(paths=2, filters=2, blocks_per_path=1)
DESK = NetworkConfig(paths=2, filters=16, blocks_per_path=2)  # perfbench's model


def random_input(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def random_target(shape, seed=1):
    rng = np.random.default_rng(seed)
    return OrientationEncoding(sin2=rng.standard_normal(shape),
                               cos2=rng.standard_normal(shape))


def activation_signature(weights, img):
    """ReLU gates and pooling routes; FD checks are valid only where these
    stay fixed across the +/-h probes."""
    _, caches = _forward(weights, img, record=True)
    parts = []
    for cache in caches["paths"]:
        parts.append((cache["in"] > 0).tobytes())
        for idx, _ in cache["pools"]:
            parts.append(idx.tobytes())
        for blk in cache["blocks"]:
            parts.append((blk["r1"] > 0).tobytes())
            parts.append((blk["out"] > 0).tobytes())
    return b"".join(parts)


def im2col(x, k):
    """(C, H, W) -> (H*W, C*k*k) same-padded patch matrix: the conv oracle."""
    pad = k // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(xp, (k, k), axis=(1, 2))  # (C, H, W, k, k)
    h, w = x.shape[1], x.shape[2]
    return win.transpose(1, 2, 0, 3, 4).reshape(h * w, -1)


def im2col_conv(x, w, b):
    cout = w.shape[0]
    out = im2col(x, w.shape[2]) @ w.reshape(cout, -1).T + b
    return out.T.reshape(cout, *x.shape[1:])


def im2col_backward(d_out, x, w):
    cout, cin, k, _ = w.shape
    d_mat = d_out.reshape(cout, -1).T  # (H*W, Cout)
    dw = (d_mat.T @ im2col(x, k)).reshape(w.shape)
    # dx scatters each patch-row gradient back onto the padded input
    d_cols = (d_mat @ w.reshape(cout, -1)).reshape(*x.shape[1:], cin, k, k)
    h, wd = x.shape[1], x.shape[2]
    pad = k // 2
    dxp = np.zeros((cin, h + 2 * pad, wd + 2 * pad))
    for i in range(k):
        for j in range(k):
            dxp[:, i : i + h, j : j + wd] += d_cols[:, :, :, i, j].transpose(2, 0, 1)
    return dxp[:, pad : pad + h, pad : pad + wd], dw, d_out.sum(axis=(1, 2))


def rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestConv:
    """conv2d_same / conv2d_backward against the im2col oracle."""

    @pytest.mark.parametrize("cin,cout", [(1, 16), (16, 16), (32, 2)])
    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("shape", [(8, 8), (24, 40), (13, 19)])
    def test_matches_im2col_oracle(self, cin, cout, k, shape):
        rng = np.random.default_rng(cin * 100 + cout + k)
        x = rng.standard_normal((cin, *shape))
        w = rng.standard_normal((cout, cin, k, k))
        b = rng.standard_normal(cout)
        d_out = rng.standard_normal((cout, *shape))
        out = conv2d_same(x, w, b)
        assert out.shape == (cout, *shape)
        assert rel_err(out, im2col_conv(x, w, b)) < 1e-12
        for got, want in zip(conv2d_backward(d_out, x, w), im2col_backward(d_out, x, w)):
            assert got.shape == want.shape
            assert rel_err(got, want) < 1e-12

    def test_height_not_divided_by_row_block(self, monkeypatch):
        # 16 channels, k=3 at width 10: 144*12 doubles per row, so 4 rows per
        # block and a last block of 3 rows for height 23
        monkeypatch.setattr(network, "_BLOCK_BYTES", 4 * 144 * 12 * 8)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((16, 23, 10))
        w = rng.standard_normal((16, 16, 3, 3))
        b = rng.standard_normal(16)
        d_out = rng.standard_normal((16, 23, 10))
        assert [rows for _, rows, _ in network._shifted_row_blocks(x, 3)] == [4] * 5 + [3]
        assert rel_err(conv2d_same(x, w, b), im2col_conv(x, w, b)) < 1e-12
        for got, want in zip(conv2d_backward(d_out, x, w), im2col_backward(d_out, x, w)):
            assert rel_err(got, want) < 1e-12

    def test_default_block_size_at_full_resolution(self):
        # at 512 px wide one row of the final layer's 32 channels is over the
        # block budget, so a block still holds one row; the single-channel
        # input conv fits the whole (3-row) image in one block
        x = np.zeros((32, 3, 512))
        assert [rows for _, rows, _ in network._shifted_row_blocks(x, 3)] == [1, 1, 1]
        assert [rows for _, rows, _ in network._shifted_row_blocks(x[:1], 3)] == [3]

    def test_no_bias_and_gradients_contiguous(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 8, 8))
        w = rng.standard_normal((3, 2, 3, 3))
        assert rel_err(conv2d_same(x, w), im2col_conv(x, w, np.zeros(3))) < 1e-12
        dx, dw, _ = conv2d_backward(rng.standard_normal((3, 8, 8)), x, w)
        assert dx.flags.c_contiguous and dw.flags.c_contiguous

    def test_final_layer_memory_stays_near_input_size(self):
        # a 32->2 conv at 256^2: its im2col matrix would be k^2 = 9x the input
        # (151 MB) and a whole zero-padded copy 1.05x; one padded window of
        # rows plus one row block must stay well below both
        x = np.random.default_rng(0).standard_normal((32, 256, 256))
        w = np.random.default_rng(1).standard_normal((2, 32, 3, 3))
        tracemalloc.start()
        try:
            conv2d_same(x, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * x.nbytes

    @pytest.mark.parametrize("k,window_rows", [(3, 4), (5, 1), (5, 3)])
    def test_many_windows_match_one(self, monkeypatch, k, window_rows):
        # 3 channels, 11 px wide: windows of 1 row (fewer than the padding p=2),
        # 3 and 4 rows over a height of 13, so the last window is partial
        rng = np.random.default_rng(k + window_rows)
        x = rng.standard_normal((3, 13, 11))
        w = rng.standard_normal((2, 3, k, k))
        b = rng.standard_normal(2)
        d_out = rng.standard_normal((2, 13, 11))
        # one-row blocks either way, so the kernel gradient sums in one order
        monkeypatch.setattr(network, "_BLOCK_BYTES", 8 * k * k * 3 * (11 + k - 1))
        whole = conv2d_same(x, w, b), conv2d_backward(d_out, x, w)
        monkeypatch.setattr(network, "_WINDOW_BYTES", 8 * 3 * window_rows * (11 + k - 1))
        assert [rows for _, rows, _ in network._shifted_row_blocks(x, k)] == [1] * 13
        windowed = conv2d_same(x, w, b), conv2d_backward(d_out, x, w)
        assert np.array_equal(windowed[0], whole[0])
        assert all(np.array_equal(got, want) for got, want in zip(windowed[1], whole[1]))
        assert rel_err(windowed[0], im2col_conv(x, w, b)) < 1e-12


class TestConfig:
    def test_paths_bounds(self):
        with pytest.raises(ValueError):
            NetworkConfig(paths=1)
        with pytest.raises(ValueError):
            NetworkConfig(paths=6)

    def test_kernel_must_be_odd(self):
        with pytest.raises(ValueError):
            NetworkConfig(kernel_size=4)

    def test_input_divisibility(self):
        cfg = NetworkConfig(paths=3, filters=4)
        with pytest.raises(ValueError, match="divisible"):
            cfg.check_input_shape((66, 64))


class TestBuild:
    def test_reference_architecture_shape(self):
        # the published selection: two paths, 110 filters
        cfg = NetworkConfig(paths=2, filters=110, blocks_per_path=2)
        w = build_network(cfg, init_seed=0)
        w.audit()
        assert w.tensors["final.w"].shape == (2, 220, 3, 3)
        assert w.tensors["path1.in.w"].shape == (110, 1, 3, 3)

    def test_seeded_init_reproducible(self):
        a = build_network(TINY, init_seed=5)
        b = build_network(TINY, init_seed=5)
        c = build_network(TINY, init_seed=6)
        for name in a.tensors:
            assert np.array_equal(a.tensors[name], b.tensors[name])
        assert any(not np.array_equal(a.tensors[n], c.tensors[n]) for n in a.tensors)

    def test_glorot_bounds(self):
        cfg = NetworkConfig(paths=2, filters=8, blocks_per_path=1)
        w = build_network(cfg, init_seed=1)
        k = w.tensors["path1.block1.conv1.w"]
        limit = np.sqrt(6.0 / (8 * 9 + 8 * 9))
        assert np.abs(k).max() <= limit
        assert np.all(w.tensors["path1.in.b"] == 0)


class TestForward:
    @pytest.mark.parametrize("n", [64, 96])
    def test_output_matches_input_size(self, n):
        cfg = NetworkConfig(paths=2, filters=4, blocks_per_path=1)
        out = forward(build_network(cfg, 0), random_input((n, n)))
        assert out.sin2.shape == (n, n) and out.cos2.shape == (n, n)

    def test_rectangular_input(self):
        out = forward(build_network(TINY, 0), random_input((16, 24)))
        assert out.shape == (16, 24)

    def test_zero_weights_output_final_bias(self):
        w = build_network(TINY, 0)
        for name in w.tensors:
            w.tensors[name][:] = 0.0
        w.tensors["final.b"][:] = (0.25, -0.5)
        out = forward(w, random_input((8, 8)))
        assert np.all(out.sin2 == 0.25) and np.all(out.cos2 == -0.5)

    def test_forward_bit_reproducible(self):
        w = build_network(TINY, 3)
        img = random_input((16, 16))
        a = forward(w, img)
        b = forward(w, img)
        assert np.array_equal(a.sin2, b.sin2) and np.array_equal(a.cos2, b.cos2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            forward(build_network(TINY, 0), random_input((9, 9)))


    @pytest.fixture(scope="class")
    def traced_desk_forward(self):
        """forward of the desk-sized net at 256² under tracemalloc:
        (output, bytes still held after it returned, peak bytes)."""
        w = build_network(DESK, 0)
        img = random_input((256, 256))
        tracemalloc.start()
        try:
            out = forward(w, img)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, current, peak

    def test_peak_below_four_activations(self, traced_desk_forward):
        # keeping every activation for a backward pass peaked near 19 of them,
        # and pooling through a copy of its whole input near 4.5
        _, _, peak = traced_desk_forward
        activation = 16 * 256 * 256 * 8
        assert peak < 4 * activation

    def test_nothing_retained(self, traced_desk_forward):
        out, current, _ = traced_desk_forward
        assert current <= out.sin2.base.nbytes + 64 * 1024


class TestPrecision:
    def test_dtype_follows_input(self):
        w = build_network(TINY, 5)
        img = random_input((16, 16))
        for dtype in (np.float32, np.float64):
            out = forward(w, img.astype(dtype))
            assert out.sin2.dtype == dtype and out.cos2.dtype == dtype
        assert forward(w, np.ones((16, 16), dtype=int)).sin2.dtype == np.float64

    @pytest.fixture(scope="class")
    def desk_256(self):
        w = build_network(DESK, 0)
        img = random_input((256, 256), seed=3)
        img[64:192, 64:192] = 0.0  # a blank patch, so the mask is not all valid
        return w, img

    def test_float32_forward_close_to_float64(self, desk_256):
        w, img = desk_256
        ref = forward(w, img)
        out = forward(w, img.astype(np.float32))
        for a, b in ((out.sin2, ref.sin2), (out.cos2, ref.cos2)):
            assert np.max(np.abs(a.astype(np.float64) - b)) < 1e-5

    def test_inference_keeps_the_float64_mask(self, desk_256):
        w, img = desk_256
        fo = infer_orientation(w, img)
        ref = decode_orientation(forward(w, img))
        assert fo.angles.dtype == np.float64
        assert 0 < np.count_nonzero(~ref.valid) < img.size
        assert np.array_equal(fo.valid, ref.valid)
        gap = np.abs(fo.angles - ref.angles)[fo.valid]
        assert np.max(np.minimum(gap, np.pi - gap)) < 1e-4  # angles are mod pi

    def test_inference_peak_below_two_and_a_half_activations(self, desk_256):
        # float64 inference peaked at 4.5 float64 activations
        w, img = desk_256
        tracemalloc.start()
        try:
            infer_orientation(w, img)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * (16 * 256 * 256 * 8)

    def test_backward_stays_float64(self):
        w = build_network(TINY, 5)
        img = random_input((16, 16))
        grads, _, pred = backward(w, img.astype(np.float32), random_target((16, 16)))
        ref, _, _ = backward(w, img.astype(np.float32).astype(np.float64),
                             random_target((16, 16)))
        assert list(grads) == list(w.tensors)
        assert pred.sin2.dtype == np.float64
        for name in grads:
            assert grads[name].dtype == np.float64
            assert grads[name].tobytes() == ref[name].tobytes()


class TestMaxpool:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_values_only_pool_matches_maxpool2(self, dtype):
        rng = np.random.default_rng(8)
        # few distinct values, so most tiles hold ties, and every zero signed
        x = rng.integers(-2, 3, size=(3, 16, 24)).astype(dtype)
        x[x == 0] = np.where(rng.random(np.count_nonzero(x == 0)) < 0.5, 0.0, -0.0)
        x[0, :2, :2] = [[-0.0, 0.0], [0.0, -0.0]]
        x[0, :2, 2:4] = [[0.0, -0.0], [-0.0, 0.0]]
        pooled = _maxpool2_values(x)
        assert pooled.dtype == dtype
        assert pooled.tobytes() == maxpool2(x)[0].tobytes()
        assert np.signbit(pooled[0, 0, 0]) and not np.signbit(pooled[0, 0, 1])

    def test_tie_routes_to_first_argmax(self):
        x = np.full((1, 2, 2), 3.0)  # a fully tied tile
        out, idx = maxpool2(x)
        assert out[0, 0, 0] == 3.0 and idx[0, 0, 0] == 0
        back = maxpool2_backward(np.ones((1, 1, 1)), idx, (1, 2, 2))
        assert back[0, 0, 0] == 1.0 and back.sum() == 1.0

    def test_pool_and_routing_values(self):
        x = np.arange(16, dtype=float).reshape(1, 4, 4)
        out, idx = maxpool2(x)
        assert np.array_equal(out[0], [[5, 7], [13, 15]])
        back = maxpool2_backward(np.array([[[1.0, 2.0], [3.0, 4.0]]]), idx, (1, 4, 4))
        assert back[0, 1, 1] == 1.0 and back[0, 3, 3] == 4.0
        assert back.sum() == 10.0


class TestUpsample:
    def test_round_trip_block_sum(self):
        from fringeproc.network import upsample_nearest_backward
        # backward sums each 2x2 block: ones gradient -> 4 per source pixel
        back = upsample_nearest_backward(np.ones((2, 4, 4)), 2)
        assert np.all(back == 4.0)


class TestBackward:
    @pytest.mark.parametrize("cfg,seed", [
        (TINY, 7),
        # three paths exercise the stacked-pooling route (downsample by 4)
        (NetworkConfig(paths=3, filters=2, blocks_per_path=1), 13),
    ])
    def test_gradients_match_finite_differences(self, cfg, seed):
        w = build_network(cfg, seed)
        img = random_input((8, 8), seed=1)
        target = random_target((8, 8), seed=2)
        grads, _, _ = backward(w, img, target)
        rng = np.random.default_rng(77)
        names = list(w.tensors)
        h = 1e-3
        checked = 0
        while checked < 25:
            name = names[rng.integers(len(names))]
            flat = w.tensors[name].ravel()
            i = int(rng.integers(flat.size))
            orig = flat[i]
            flat[i] = orig + h
            sig_p = activation_signature(w, img)
            lp = loss_mse(forward(w, img), target)
            flat[i] = orig - h
            sig_m = activation_signature(w, img)
            lm = loss_mse(forward(w, img), target)
            flat[i] = orig
            if sig_p != sig_m:
                continue  # FD straddles a ReLU/pool kink; not a valid probe
            g_fd = (lp - lm) / (2 * h)
            g_an = grads[name].ravel()[i]
            assert abs(g_an - g_fd) / max(abs(g_fd), 1e-8) < 1e-3
            checked += 1

    def test_zero_input_zero_bias_first_layer_grads_vanish(self):
        w = build_network(TINY, 0)
        target = random_target((8, 8))
        grads, _, _ = backward(w, np.zeros((8, 8)), target)
        assert np.all(grads["path1.in.w"] == 0)
        assert np.all(grads["path2.in.w"] == 0)

    def test_loss_gradient_definition_via_final_bias(self):
        # d out / d final.b = 1 everywhere, so its gradient must equal the
        # channel sums of dL/dpred = 2 (pred - target) / N
        w = build_network(TINY, 9)
        img = random_input((8, 8), seed=3)
        target = random_target((8, 8), seed=4)
        grads, _, pred = backward(w, img, target)
        n = 2 * 8 * 8
        expected = [
            np.sum(2.0 * (pred.sin2 - target.sin2) / n),
            np.sum(2.0 * (pred.cos2 - target.cos2) / n),
        ]
        assert np.allclose(grads["final.b"], expected, atol=1e-12)

    def test_prediction_is_forward_output(self):
        w = build_network(NetworkConfig(paths=3, filters=4, blocks_per_path=2), 5)
        img = random_input((32, 32), seed=6)
        _, _, pred = backward(w, img, random_target((32, 32)))
        want = forward(w, img)
        assert pred.sin2.tobytes() == want.sin2.tobytes()
        assert pred.cos2.tobytes() == want.cos2.tobytes()

    def test_target_shape_mismatch(self):
        w = build_network(TINY, 0)
        with pytest.raises(ValueError, match="target"):
            backward(w, random_input((8, 8)), random_target((16, 16)))


class TestInference:
    def test_output_range_and_mask(self):
        w = build_network(TINY, 11)
        fo = infer_orientation(w, random_input((16, 16)))
        assert np.all(fo.angles[fo.valid] >= 0)
        assert np.all(fo.angles[fo.valid] < np.pi)

    def test_zero_weights_give_valid_constant(self):
        w = build_network(TINY, 0)
        for name in w.tensors:
            w.tensors[name][:] = 0.0
        w.tensors["final.b"][:] = (0.0, 1.0)  # encodes FO = 0
        fo = infer_orientation(w, random_input((8, 8)))
        assert fo.valid.all() and np.all(fo.angles == 0.0)


class TestWeightsFile:
    def _float32_weights(self):
        w = build_network(TINY, 21)
        for name in w.tensors:
            w.tensors[name] = w.tensors[name].astype(np.float32).astype(np.float64)
        return w

    def test_round_trip_identity(self, tmp_path):
        w = self._float32_weights()
        path = tmp_path / "m.fpaw"
        save_weights(w, path)
        back = load_weights(path)
        assert back.config == w.config
        for name in w.tensors:
            assert np.array_equal(back.tensors[name], w.tensors[name])

    def test_save_load_save_byte_identical(self, tmp_path):
        w = self._float32_weights()
        p1, p2 = tmp_path / "a.fpaw", tmp_path / "b.fpaw"
        save_weights(w, p1)
        save_weights(load_weights(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_tensor_rejected(self, tmp_path):
        path = tmp_path / "m.fpaw"
        save_weights(self._float32_weights(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(TruncatedPayloadError):
            load_weights(path)

    def test_bad_magic_and_version(self, tmp_path):
        path = tmp_path / "m.fpaw"
        save_weights(self._float32_weights(), path)
        raw = bytearray(path.read_bytes())
        good = bytes(raw)
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            load_weights(path)
        raw = bytearray(good)
        raw[4:8] = (7).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatchError):
            load_weights(path)

    def test_config_tensor_disagreement_rejected(self, tmp_path):
        # tensors shaped for filters=2 but header claims filters=4
        w = self._float32_weights()
        path = tmp_path / "m.fpaw"
        save_weights(w, path)
        raw = path.read_bytes()
        swapped = raw.replace(b'"filters": 2', b'"filters": 4', 1)
        assert swapped != raw
        path.write_bytes(swapped)
        with pytest.raises(ShapeAuditError):
            load_weights(path)

    def test_audit_catches_wrong_shape(self):
        w = build_network(TINY, 0)
        w.tensors["final.b"] = np.zeros(3)
        with pytest.raises(ShapeAuditError):
            w.audit()

    @staticmethod
    def _with_header(path, header: bytes):
        """Rewrite the FPAW file at path with a replacement JSON header."""
        raw = path.read_bytes()
        json_len = int.from_bytes(raw[8:12], "little")
        path.write_bytes(raw[:8] + len(header).to_bytes(4, "little")
                         + header + raw[12 + json_len :])

    def _header(self, path):
        raw = path.read_bytes()
        return json.loads(raw[12 : 12 + int.from_bytes(raw[8:12], "little")])

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda h: h.pop("config"), id="no-config"),
        pytest.param(lambda h: h.pop("tensors"), id="no-tensors"),
        pytest.param(lambda h: h.update(config=[2, 2, 1, 3]), id="config-list"),
        pytest.param(lambda h: h.update(tensors={"path1.in.w": [2, 1, 3, 3]}),
                     id="tensors-object"),
        pytest.param(lambda h: h.update(tensors=["path1.in.w"]), id="tensor-entry-string"),
        pytest.param(lambda h: h["tensors"][0].pop("shape"), id="tensor-entry-no-shape"),
        pytest.param(lambda h: h["config"].pop("filters"), id="no-filters"),
        pytest.param(lambda h: h["config"].update(paths=9), id="paths-9"),
        pytest.param(lambda h: h["config"].update(paths=2.0), id="paths-float"),
        pytest.param(lambda h: h["config"].update(filters="2"), id="filters-string"),
        pytest.param(lambda h: h["config"].update(filters=True), id="filters-bool"),
        pytest.param(lambda h: h["config"].update(kernel_size=4), id="kernel-even"),
        pytest.param(lambda h: h["config"].update(kernel_size=-1), id="kernel-negative"),
        pytest.param(lambda h: h["config"].update(blocks_per_path=0), id="no-blocks"),
    ])
    def test_malformed_header_is_header_error(self, tmp_path, mutate):
        path = tmp_path / "m.fpaw"
        save_weights(self._float32_weights(), path)
        header = self._header(path)
        mutate(header)
        self._with_header(path, json.dumps(header).encode())
        with pytest.raises(HeaderError):
            load_weights(path)

    @pytest.mark.parametrize("blob", [b"[1, 2]", b"null", b"{not json", b"\xff\xfe{}",
                                      b"[" * 100_000],
                             ids=["array", "null", "bad-json", "bad-utf8", "deep-nesting"])
    def test_unreadable_header_is_header_error(self, tmp_path, blob):
        path = tmp_path / "m.fpaw"
        save_weights(self._float32_weights(), path)
        self._with_header(path, blob)
        with pytest.raises(HeaderError):
            load_weights(path)

    def test_tensor_spec_order_is_stable(self):
        names = [n for n, _ in tensor_specs(TINY)]
        assert names[0] == "path1.in.w"
        assert names[-2:] == ["final.w", "final.b"]
