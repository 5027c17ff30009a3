"""Network topologies used in the paper: LeNet-5, AlexNet and VGG16.

The Table III workload figures depend only on the layer shapes (MACs per
frame), which these builders reproduce:

* **LeNet-5** -- the Caffe variant (20/50 conv filters, 500-unit classifier):
  0.29 and 1.60 MMAC in the two convolutional layers, matching the 0.3 / 1.6
  MMAC per frame of Table III.
* **AlexNet** -- 5 convolutional layers with the original grouping: 105 /
  224 / 150 / 112 / 75 MMAC (666 MMAC total), matching Table III's 104 / 224
  / 150 / 112 / 666.
* **VGG16** -- 13 convolutional layers between 87 and 1850 MMAC (15.3 GMAC
  total), matching Table III's 87 / 462-1850 / 15346.

Weights are synthetic (He-initialised); for the quantisation sweeps the
networks can be built at reduced input resolution (``input_size``) so the
numpy inference stays tractable while the layer structure -- and therefore
the error-propagation behaviour that sets the per-layer precision needs --
is preserved.  MAC accounting always uses the shapes the network was built
with, so Table III uses the full-resolution builders.
"""

from __future__ import annotations

import numpy as np

from .layers import Conv2D, Flatten, FullyConnected, MaxPool2D, ReLU
from .network import Network


def lenet5(*, input_size: int = 28, seed: int = 7) -> Network:
    """LeNet-5 (Caffe variant) for single-channel digit classification."""
    if input_size < 16:
        raise ValueError("input_size must be at least 16")
    rng = np.random.default_rng(seed)
    layers = [
        Conv2D(1, 20, 5, name="conv1", rng=rng),
        ReLU(name="relu1"),
        MaxPool2D(2, name="pool1"),
        Conv2D(20, 50, 5, name="conv2", rng=rng),
        ReLU(name="relu2"),
        MaxPool2D(2, name="pool2"),
        Flatten(name="flatten"),
    ]
    # Feature size after two conv(5)+pool(2) stages.
    spatial = ((input_size - 4) // 2 - 4) // 2
    layers.extend(
        [
            FullyConnected(50 * spatial * spatial, 500, name="fc1", rng=rng),
            ReLU(name="relu3"),
            FullyConnected(500, 10, name="fc2", rng=rng),
        ]
    )
    return Network(layers, (1, input_size, input_size), name="LeNet-5")


def alexnet(*, input_size: int = 224, num_classes: int = 1000, seed: int = 11) -> Network:
    """AlexNet with the original two-group convolutions.

    ``input_size`` below 224 builds a spatially reduced proxy (for the
    quantisation sweeps); the canonical 224 builder reproduces the paper's
    per-layer MMAC counts.
    """
    if input_size < 63:
        raise ValueError("input_size must be at least 63 for the AlexNet topology")
    rng = np.random.default_rng(seed)
    layers = [
        Conv2D(3, 96, 11, stride=4, padding=2, name="conv1", rng=rng),
        ReLU(name="relu1"),
        MaxPool2D(2, name="pool1"),
        Conv2D(96, 256, 5, padding=2, groups=2, name="conv2", rng=rng),
        ReLU(name="relu2"),
        MaxPool2D(2, name="pool2"),
        Conv2D(256, 384, 3, padding=1, name="conv3", rng=rng),
        ReLU(name="relu3"),
        Conv2D(384, 384, 3, padding=1, groups=2, name="conv4", rng=rng),
        ReLU(name="relu4"),
        Conv2D(384, 256, 3, padding=1, groups=2, name="conv5", rng=rng),
        ReLU(name="relu5"),
        MaxPool2D(2, name="pool3"),
        Flatten(name="flatten"),
    ]
    probe = Network(layers[:-1], (3, input_size, input_size), name="probe")
    channels, height, width = probe.output_shape
    feature_size = channels * height * width
    layers.extend(
        [
            FullyConnected(feature_size, 4096, name="fc6", rng=rng),
            ReLU(name="relu6"),
            FullyConnected(4096, 4096, name="fc7", rng=rng),
            ReLU(name="relu7"),
            FullyConnected(4096, num_classes, name="fc8", rng=rng),
        ]
    )
    return Network(layers, (3, input_size, input_size), name="AlexNet")


#: VGG16 convolutional configuration: (output channels, number of conv layers)
#: per block, each followed by 2x2 max pooling.
_VGG16_BLOCKS = [(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)]


def vgg16(*, input_size: int = 224, num_classes: int = 1000, seed: int = 13) -> Network:
    """VGG16 (configuration D) with 3x3 convolutions throughout."""
    if input_size < 32 or input_size % 32:
        raise ValueError("input_size must be a positive multiple of 32")
    rng = np.random.default_rng(seed)
    layers = []
    in_channels = 3
    conv_index = 0
    for block_index, (channels, count) in enumerate(_VGG16_BLOCKS, start=1):
        for position in range(1, count + 1):
            conv_index += 1
            layers.append(
                Conv2D(
                    in_channels,
                    channels,
                    3,
                    padding=1,
                    name=f"conv{block_index}_{position}",
                    rng=rng,
                )
            )
            layers.append(ReLU(name=f"relu{block_index}_{position}"))
            in_channels = channels
        layers.append(MaxPool2D(2, name=f"pool{block_index}"))
    layers.append(Flatten(name="flatten"))
    spatial = input_size // 32
    layers.extend(
        [
            FullyConnected(512 * spatial * spatial, 4096, name="fc6", rng=rng),
            ReLU(name="relu_fc6"),
            FullyConnected(4096, 4096, name="fc7", rng=rng),
            ReLU(name="relu_fc7"),
            FullyConnected(4096, num_classes, name="fc8", rng=rng),
        ]
    )
    return Network(layers, (3, input_size, input_size), name="VGG16")

