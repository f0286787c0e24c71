"""Regression metrics shared by the forward and inverse directions.

numpy only: the inverse path imports this module, and it runs no GP, so it
must not pull in scipy through the forward-family table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass
class Metrics:
    r2: float
    mae: float
    mse: float
    rmse: float
    constant_target: bool = False  # SS_tot was zero; r2 is conventional, not defined


def compute_metrics(y: np.ndarray, y_hat: np.ndarray) -> Metrics:
    """R^2, MAE, MSE, RMSE. R^2 is measured against the mean of `y` itself,
    whichever subset that is. Constant targets set the flag instead of NaN."""
    y = np.asarray(y, dtype=float).ravel()
    y_hat = np.asarray(y_hat, dtype=float).ravel()
    if y.size != y_hat.size:
        raise ValidationError(f"length mismatch: {y.size} vs {y_hat.size}")
    if y.size == 0:
        raise ValidationError("empty vectors")
    err = y - y_hat
    mae = float(np.mean(np.abs(err)))
    mse = float(np.mean(err * err))
    rmse = math.sqrt(mse)
    ss_res = float(np.sum(err * err))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return Metrics(r2=1.0 if ss_res == 0.0 else 0.0, mae=mae, mse=mse, rmse=rmse,
                       constant_target=True)
    return Metrics(r2=1.0 - ss_res / ss_tot, mae=mae, mse=mse, rmse=rmse)
