"""Two-view consistency training for image tamper detection.

The package trains a small depthwise/pointwise-conv encoder with GroupNorm
on pairs of augmented views of each image: a weighted cross-entropy loss
drives the classifier while a consistency penalty pulls the two views'
representations together.
Everything runs on a from-scratch float64 autodiff core (`ndgrad`), so the
whole pipeline is deterministic and finite-difference checkable.
"""

__version__ = "0.1.0"
