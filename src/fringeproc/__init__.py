"""Fringe-pattern orientation estimation and Hilbert-spiral phase demodulation.

Library layout:

- ``image``: grid primitives (gradients, FFT contract, Gaussian blur)
- ``container``: the FPAI float32 file format + JSON sidecars
- ``simulate``: synthetic fringes with analytic ground truth, seeded datasets
- ``maps``: orientation/direction/encoding types and conversions
- ``orientation``: classical estimators (gradient, combined plane-fit/gradient)
- ``network`` / ``training``: the multi-path residual CNN, from scratch
- ``unwrap``: spanning-tree 2D unwrapping, orientation -> direction lift
- ``hst``: spiral-phase quadrature and phase demodulation
- ``metrics``: orientation error, channel RMSE, piston-free phase RMSE
- ``cli``: the ``fringeproc`` command-line surface
"""

from .container import read_container, read_sidecar, write_container
from .image import GradientPair, fft2, gaussian_blur, gradients, ifft2
from .maps import (
    OrientationEncoding,
    OrientationMap,
    circular_direction_error,
    circular_orientation_error,
    decode_orientation,
    encode_orientation,
)
from .metrics import EvalReport, orientation_error, rmse_channels, rmse_phase
from .network import (
    ModelWeights,
    NetworkConfig,
    backward,
    build_network,
    forward,
    infer_orientation,
    load_weights,
    save_weights,
)
from .orientation import (
    WindowSpec,
    cpfg_orientation,
    estimate_dominant_period,
    gradient_orientation,
    plane_fit_gradients,
    prefilter,
)
from .simulate import (
    CarrierSpec,
    DatasetManifest,
    GaussianKernelSpec,
    add_gaussian_noise,
    gen_blob_mask_phase,
    gen_carrier,
    gen_object_phase_gaussians,
    gen_peaks_phase,
    ground_truth_direction,
    ground_truth_orientation,
    load_manifest,
    make_dataset,
    render_fringe,
    render_gaussian_kernels,
)
from .hst import demodulate, demodulate_phase, make_spiral_filter, quadrature
from .training import Sample, TrainConfig, adam_step, load_samples, loss_mse, train
from .unwrap import orientation_to_direction, reliability_map, unwrap_phase_2d

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
