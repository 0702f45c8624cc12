"""mvcrop: multi-view time-series classification.

Per-view temporal encoders, fusion strategies over them, and the training,
metrics, data handling, and experiment running needed to evaluate them, all on
a small numpy reverse-mode autodiff core.
"""

__version__ = "0.1.0"
