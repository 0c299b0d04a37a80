"""Channel-wise recurrent convolutional networks.

A compact-CNN toolkit: the channel-wise recurrent convolutional layer and
its computation-form variants, the RecNet model family with analytic
parameter/FLOP ledgers, a CIFAR binary data pipeline, an SGD trainer with
warm-restart cosine annealing, and verification suites tying it together.
"""

from .crc import (
    CrcParams,
    CrcVariant,
    crc_backward,
    crc_forward,
    crc_linear_unrolled,
    grouped_shared_forward,
)
from .data import DataBundle, Dataset, Normalizer, load, minibatches
from .errors import ConfigError, FormatError, ShapeError
from .model import (
    RecNetConfig,
    RecNetModel,
    acronym,
    build,
    crc_layer_params,
    flop_count,
    ledger,
    param_count,
)
from .rec import RecModule, TransitionBlock, rec_backward, rec_forward
from .tensor import BnState, ConvKernel, Param
from .train import TrainConfig, evaluate, lr_at, sgd_step, train

__version__ = "0.1.0"

__all__ = [
    "BnState", "ConfigError", "ConvKernel", "CrcParams", "CrcVariant",
    "DataBundle", "Dataset", "FormatError", "Normalizer", "Param", "RecModule",
    "RecNetConfig", "RecNetModel", "ShapeError", "TrainConfig",
    "TransitionBlock", "acronym", "build", "crc_backward", "crc_forward",
    "crc_layer_params", "crc_linear_unrolled", "evaluate", "flop_count",
    "grouped_shared_forward", "ledger", "load", "lr_at", "minibatches", "param_count",
    "rec_backward", "rec_forward", "sgd_step", "train",
]
