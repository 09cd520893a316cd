"""Front end: branch prediction and trace-driven fetch."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".branch_predictor": (
        "GsharePredictor",
        "IndirectPredictor",
        "PredictorStats",
    ),
    ".fetch": (
        "FetchUnit",
    ),
})
