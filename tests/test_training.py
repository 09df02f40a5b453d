import math

import numpy as np
import pytest

from fringeproc.maps import OrientationEncoding, OrientationMap
from fringeproc.network import NetworkConfig, build_network
from fringeproc.simulate import DatasetManifest, make_dataset
from fringeproc.training import (
    AdamState,
    Sample,
    TrainConfig,
    adam_step,
    evaluate_model,
    load_samples,
    loss_mse,
    train,
)

TINY = NetworkConfig(paths=2, filters=2, blocks_per_path=1)


def make_enc(value_sin, value_cos, shape=(8, 8)):
    return OrientationEncoding(sin2=np.full(shape, value_sin),
                               cos2=np.full(shape, value_cos))


class TestLoss:
    def test_zero_when_equal(self):
        enc = make_enc(0.3, -0.2)
        assert loss_mse(enc, enc) == 0.0

    def test_constant_offset(self):
        target = make_enc(0.0, 0.0)
        pred = make_enc(0.5, 0.5)
        assert loss_mse(pred, target) == pytest.approx(0.25)

    def test_single_pixel_hand_case(self):
        pred = OrientationEncoding(sin2=np.array([[1.0]]), cos2=np.array([[0.0]]))
        target = OrientationEncoding(sin2=np.array([[0.0]]), cos2=np.array([[1.0]]))
        assert loss_mse(pred, target) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            loss_mse(make_enc(0, 0, (8, 8)), make_enc(0, 0, (4, 4)))


class TestAdam:
    def test_first_step_closed_form(self):
        # m_hat = v_hat = 1 after one unit-gradient step: delta = -lr/(1+eps)
        w = build_network(TINY, 0)
        name = "final.b"
        w.tensors[name][:] = 0.5
        grads = {k: np.zeros_like(v) for k, v in w.tensors.items()}
        grads[name][:] = 1.0
        state = AdamState.for_weights(w)
        adam_step(w, grads, state, lr=1e-4)
        delta = w.tensors[name][0] - 0.5
        assert delta == pytest.approx(-1e-4, rel=1e-7)
        assert state.t == 1

    def test_zero_gradient_leaves_weights(self):
        w = build_network(TINY, 1)
        before = {k: v.copy() for k, v in w.tensors.items()}
        grads = {k: np.zeros_like(v) for k, v in w.tensors.items()}
        adam_step(w, grads, AdamState.for_weights(w), lr=1e-2)
        for name in before:
            assert np.array_equal(w.tensors[name], before[name])

    def test_identical_runs_identical_trajectories(self):
        rng = np.random.default_rng(0)
        gvals = rng.standard_normal(5)
        results = []
        for _ in range(2):
            w = build_network(TINY, 2)
            state = AdamState.for_weights(w)
            for g in gvals:
                grads = {k: np.full_like(v, g) for k, v in w.tensors.items()}
                adam_step(w, grads, state, lr=1e-3)
            results.append({k: v.copy() for k, v in w.tensors.items()})
        for name in results[0]:
            assert np.array_equal(results[0][name], results[1][name])


class TestSchedule:
    def test_lr_drops_every_five_epochs(self):
        cfg = TrainConfig(initial_lr=1e-4, shuffle_seed=0)
        assert all(cfg.lr_for_epoch(e) == 1e-4 for e in range(1, 6))
        assert all(cfg.lr_for_epoch(e) == pytest.approx(2e-5) for e in range(6, 11))
        assert cfg.lr_for_epoch(11) == pytest.approx(4e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0, shuffle_seed=0)

    @pytest.mark.parametrize("field", ["initial_lr", "lr_drop_factor"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(**{field: value})

    def test_batch_size_other_than_one_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=2)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("tinyds")
    make_dataset(DatasetManifest(base_seed=31, count=10, rows=16, cols=16), root / "trn")
    make_dataset(DatasetManifest(base_seed=57, count=4, rows=16, cols=16), root / "val")
    return load_samples(root / "trn"), load_samples(root / "val")


class TestTrainLoop:
    def test_loss_decreases_from_untrained(self, tiny_dataset):
        trn, val = tiny_dataset
        cfg = TrainConfig(initial_lr=1e-3, epochs=3, shuffle_seed=5)
        untrained = build_network(TINY, init_seed=1)
        u_loss, _ = evaluate_model(untrained, val)
        result = train(trn, val, TINY, cfg)
        assert result.history[-1]["val_loss"] < u_loss
        assert len(result.history) == 3
        assert {"epoch", "lr", "train_loss", "val_loss", "val_oe"} <= set(result.history[0])

    def test_history_lr_schedule_recorded(self, tiny_dataset):
        trn, val = tiny_dataset
        cfg = TrainConfig(initial_lr=1e-3, epochs=6, lr_drop_period_epochs=5,
                          shuffle_seed=5)
        result = train(trn, val, TINY, cfg)
        assert [h["lr"] for h in result.history[:5]] == [1e-3] * 5
        assert result.history[5]["lr"] == pytest.approx(2e-4)

    def test_deterministic_history(self, tiny_dataset):
        trn, val = tiny_dataset
        cfg = TrainConfig(initial_lr=1e-3, epochs=2, shuffle_seed=9)
        r1 = train(trn, val, TINY, cfg)
        r2 = train(trn, val, TINY, cfg)
        assert r1.history == r2.history
        for name in r1.weights.tensors:
            assert np.array_equal(r1.weights.tensors[name], r2.weights.tensors[name])

    def test_best_validation_weights_returned(self, tiny_dataset):
        trn, val = tiny_dataset
        cfg = TrainConfig(initial_lr=1e-3, epochs=3, shuffle_seed=5)
        result = train(trn, val, TINY, cfg)
        best_loss, _ = evaluate_model(result.weights, val)
        assert best_loss == pytest.approx(
            min(h["val_loss"] for h in result.history))
        assert result.best_epoch == int(np.argmin(
            [h["val_loss"] for h in result.history])) + 1

    def test_empty_dataset_rejected(self, tiny_dataset):
        _, val = tiny_dataset
        with pytest.raises(ValueError):
            train([], val, TINY, TrainConfig(shuffle_seed=0))

    def test_inconsistent_shapes_rejected(self, tiny_dataset):
        trn, val = tiny_dataset
        rng = np.random.default_rng(0)
        bad = Sample(fringe=rng.standard_normal((32, 32)),
                     encoding=OrientationEncoding(sin2=np.zeros((32, 32)),
                                                  cos2=np.ones((32, 32))),
                     fo=OrientationMap(angles=np.zeros((32, 32)),
                                       valid=np.ones((32, 32), dtype=bool)))
        with pytest.raises(ValueError, match="one size"):
            train(trn + [bad], val, TINY, TrainConfig(shuffle_seed=0))


class TestUntrainedBaseline:
    def test_untrained_model_is_uninformed(self):
        # an untrained net must sit in the uninformed band: no better than the
        # best constant map, no worse than per-pixel random angles
        from fringeproc.maps import OrientationMap
        from fringeproc.metrics import orientation_error
        from fringeproc.network import infer_orientation
        from fringeproc.simulate import (CarrierSpec, gen_carrier,
                                         gen_object_phase_gaussians,
                                         ground_truth_orientation, render_fringe)

        phase = gen_object_phase_gaussians((64, 64), seed=5) + gen_carrier(
            (64, 64), CarrierSpec(14.0, 0.8))
        gt = ground_truth_orientation(phase)
        ones = np.ones((64, 64), dtype=bool)
        best_constant = min(
            orientation_error(OrientationMap(angles=np.full((64, 64), c), valid=ones), gt)
            for c in np.linspace(0, np.pi, 180, endpoint=False)
        )
        rng = np.random.default_rng(0)
        random_map = float(np.mean([
            orientation_error(
                OrientationMap(angles=rng.uniform(0, np.pi, (64, 64)), valid=ones), gt)
            for _ in range(10)
        ]))
        net_cfg = NetworkConfig(paths=2, filters=16, blocks_per_path=2)
        untrained = build_network(net_cfg, init_seed=7)
        oe = orientation_error(infer_orientation(untrained, render_fringe(phase)), gt)
        assert oe >= 0.8 * best_constant
        assert oe <= 1.2 * random_map
