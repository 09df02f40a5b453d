"""Training loop: batch-1 Adam on MSE over (sin 2FO, cos 2FO) targets.

The learning rate starts at 1e-4 and drops by a factor of 5 every 5 epochs;
items are reshuffled each epoch from a seeded generator; the weights with the
best validation loss are returned together with the per-epoch history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .container import read_container, read_encoding, read_orientation, single_channel
from .maps import OrientationEncoding, OrientationMap, decode_orientation
from .metrics import orientation_error
from .network import (  # noqa: F401  infer_orientation: perfbench/spans.py traces it here
    ModelWeights,
    NetworkConfig,
    backward,
    build_network,
    forward,
    infer_orientation,
)
from .simulate import load_manifest, splitmix64

# Adam's standard moment decays and denominator guard (Kingma & Ba, ICLR 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    initial_lr: float = 1e-4
    lr_drop_factor: float = 5.0
    lr_drop_period_epochs: int = 5
    epochs: int = 30
    batch_size: int = 1  # train takes one Adam step per image; any other value is rejected
    shuffle_seed: int = 0

    def __post_init__(self):
        rates = (self.initial_lr, self.lr_drop_factor, self.lr_drop_period_epochs, self.epochs)
        if not all(0 < value < np.inf for value in rates):
            raise ValueError("all training parameters must be finite and positive")
        if self.batch_size != 1:
            raise ValueError(f"batch_size must be 1, got {self.batch_size}")

    def lr_for_epoch(self, epoch: int) -> float:
        """Learning rate of a 1-based epoch: dropped after each full period."""
        drops = (epoch - 1) // self.lr_drop_period_epochs
        return self.initial_lr / self.lr_drop_factor**drops


def loss_mse(pred: OrientationEncoding, target: OrientationEncoding) -> float:
    """Mean over both channels and all pixels of the squared difference."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    p = pred.to_array()
    t = target.to_array()
    return float(np.mean((p - t) ** 2))


@dataclass
class AdamState:
    """First/second moment tensors and the step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_weights(cls, weights: ModelWeights) -> "AdamState":
        return cls(
            m={k: np.zeros_like(a) for k, a in weights.tensors.items()},
            v={k: np.zeros_like(a) for k, a in weights.tensors.items()},
        )


def adam_step(weights: ModelWeights, grads: dict[str, np.ndarray], state: AdamState,
              lr: float):
    """Standard Adam with bias correction; updates weights/state in place."""
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    for name, w in weights.tensors.items():
        g = grads[name]
        if g.shape != w.shape:
            raise ValueError(f"{name}: gradient shape {g.shape} != weight {w.shape}")
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g**2
        w -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return weights, state


@dataclass
class Sample:
    """One dataset item: input fringe, target encoding, ground-truth orientation."""

    fringe: np.ndarray
    encoding: OrientationEncoding
    fo: OrientationMap


def load_samples(dataset_dir) -> list[Sample]:
    """Read every item of an on-disk dataset (manifest.json + FPAI files)."""
    dataset_dir = Path(dataset_dir)
    manifest = load_manifest(dataset_dir / "manifest.json")
    samples = []
    for item in manifest.items:
        fringe_path = dataset_dir / item["fringe"]
        fringe = single_channel(read_container(fringe_path), fringe_path)
        enc = read_encoding(dataset_dir / item["encoding"])
        fo = read_orientation(dataset_dir / item["fo"])
        samples.append(Sample(fringe=fringe, encoding=enc, fo=fo))
    return samples


def evaluate_model(weights: ModelWeights, samples: list[Sample]):
    """(mean loss, mean orientation error) over a sample list, one forward each."""
    losses = []
    oes = []
    for sample in samples:
        pred = forward(weights, sample.fringe)
        losses.append(loss_mse(pred, sample.encoding))
        oes.append(orientation_error(decode_orientation(pred), sample.fo))
    return float(np.mean(losses)), float(np.mean(oes))


@dataclass
class TrainResult:
    weights: ModelWeights
    history: list[dict] = field(default_factory=list)
    best_epoch: int = 0


def train(
    train_set: list[Sample],
    val_set: list[Sample],
    net_cfg: NetworkConfig,
    train_cfg: TrainConfig,
) -> TrainResult:
    """Seeded epoch loop, one backward pass and one Adam step per training
    image; returns the best-validation weights and the history.

    shuffle_seed fixes the whole trajectory: the initial weights come from
    its SplitMix64 derivation, and the item order within each epoch from it.
    """
    if not train_set or not val_set:
        raise ValueError("training and validation sets must be non-empty")
    shape = train_set[0].fringe.shape
    for sample in (*train_set, *val_set):
        if sample.fringe.shape != shape:
            raise ValueError("all dataset images must share one size")
    net_cfg.check_input_shape(shape)

    weights = build_network(net_cfg, splitmix64(train_cfg.shuffle_seed))
    state = AdamState.for_weights(weights)
    rng = np.random.Generator(np.random.PCG64(train_cfg.shuffle_seed))

    history: list[dict] = []
    best = weights.copy()
    best_loss = np.inf
    best_epoch = 0
    for epoch in range(1, train_cfg.epochs + 1):
        lr = train_cfg.lr_for_epoch(epoch)
        epoch_losses = []
        for idx in rng.permutation(len(train_set)):
            sample = train_set[idx]
            grads, loss, _ = backward(weights, sample.fringe, sample.encoding)
            epoch_losses.append(loss)
            adam_step(weights, grads, state, lr)
        val_loss, val_oe = evaluate_model(weights, val_set)
        history.append(
            {
                "epoch": epoch,
                "lr": lr,
                "train_loss": float(np.mean(epoch_losses)),
                "val_loss": val_loss,
                "val_oe": val_oe,
            }
        )
        if val_loss < best_loss:
            best_loss = val_loss
            best = weights.copy()
            best_epoch = epoch
    return TrainResult(weights=best, history=history, best_epoch=best_epoch)
