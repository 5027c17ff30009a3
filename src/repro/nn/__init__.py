"""CNN substrate: layers, networks, models, datasets, training, quantisation."""

from .datasets import Dataset, synthetic_digits, synthetic_natural_images
from .layers import Conv2D, Flatten, FullyConnected, Layer, MaxPool2D, ReLU
from .models import alexnet, lenet5, vgg16
from .network import LayerSummary, Network
from .precision_search import LayerPrecisionProfile, PrecisionSearch
from .quantization import (
    QuantizationConfig,
    quantization_error,
    quantization_scale,
    quantize,
    quantize_to_codes,
)
from .sparsity import LayerSparsity, measure_sparsity, prune_network
from .training import (
    TrainedLeNet,
    Trainer,
    TrainingHistory,
    cross_entropy_loss,
    lenet_state_artifact,
    resolve_trained_lenet,
    softmax,
)

__all__ = [
    "Dataset",
    "synthetic_digits",
    "synthetic_natural_images",
    "Conv2D",
    "Flatten",
    "FullyConnected",
    "Layer",
    "MaxPool2D",
    "ReLU",
    "alexnet",
    "lenet5",
    "vgg16",
    "LayerSummary",
    "Network",
    "LayerPrecisionProfile",
    "PrecisionSearch",
    "QuantizationConfig",
    "quantization_error",
    "quantization_scale",
    "quantize",
    "quantize_to_codes",
    "LayerSparsity",
    "measure_sparsity",
    "prune_network",
    "TrainedLeNet",
    "Trainer",
    "TrainingHistory",
    "cross_entropy_loss",
    "lenet_state_artifact",
    "resolve_trained_lenet",
    "softmax",
]
