"""Dense float64 vector/matrix primitives shared by every layer.

Vectors are 1-D float64 arrays, matrices 2-D row-major float64 arrays.
Shape mismatches and non-finite results are hard errors, never silent.
"""

import numpy as np


def require_finite(op: str, arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"{op} produced non-finite values")
    return arr


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v with shape checking: (r x c) times (c,) -> (r,)."""
    if m.ndim != 2 or v.ndim != 1:
        raise ValueError(f"matvec expects matrix and vector, got {m.shape} and {v.shape}")
    if m.shape[1] != v.shape[0]:
        raise ValueError(f"matvec shape mismatch: {m.shape} x {v.shape}")
    return require_finite("matvec", m @ v)


def sigmoid(v: np.ndarray) -> np.ndarray:
    """Elementwise logistic, computed as 0.5*(tanh(x/2)+1): one ufunc pass,
    overflow-safe on both tails."""
    return 0.5 * (np.tanh(0.5 * v) + 1.0)


def relu_v(v: np.ndarray) -> np.ndarray:
    return np.maximum(v, 0.0)
