"""Reconstruction of undersampled MR images with a cascade of convolutional
de-aliasing blocks interleaved with closed-form k-space data-consistency
steps, trained end-to-end with hand-rolled backpropagation."""

from .cascade import (
    CascadeModel,
    CnnModule,
    build_model,
    cascade_backward,
    cascade_forward,
    load_checkpoint,
    reconstruct,
    save_checkpoint,
    zero_model,
)
from .dclayer import DcConfig, dc_backward, dc_forward
from .errors import (
    CheckpointFormatError,
    InvalidParameterError,
    InvalidShapeError,
    InvalidStateError,
    TrainingDivergedError,
)
from .fourier import fft2, ifft2
from .layers import ConvLayer, conv_backward, conv_forward, he_init, relu_backward, relu_forward, residual_add
from .phantom import make_dataset, make_phantom, split_indices
from .sampling import Measurements, SamplingMask, apply_encoding, generate_mask, zero_filled
from .tensorcore import ComplexImage, Rng, complex_norm_sq, load_image, load_tensor, normal_draw, save_image, save_tensor
from .training import AdamState, TrainConfig, adam_step, augment, init_adam_state, mse_loss, train_epoch

__version__ = "0.1.0"
