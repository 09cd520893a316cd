"""Front end: branch prediction and trace-driven fetch."""

from .branch_predictor import GsharePredictor, IndirectPredictor, PredictorStats
from .fetch import FetchUnit

__all__ = [
    "GsharePredictor",
    "IndirectPredictor",
    "PredictorStats",
    "FetchUnit",
]
