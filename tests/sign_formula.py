"""The sweep's score formula, the reference for its candidate scores."""

from __future__ import annotations

import numpy as np


def count_from_signs(signs: np.ndarray, closed: bool) -> np.ndarray:
    """Per row of vertex signs: strict crossings plus runs of zeros, the
    component count of a line whose intersection points are distinct."""
    if closed:
        edge_pairs = signs.astype(np.int16) * np.roll(signs, -1, axis=1).astype(np.int16)
    else:
        edge_pairs = signs[:, :-1].astype(np.int16) * signs[:, 1:].astype(np.int16)
    crossings = (edge_pairs < 0).sum(axis=1)

    zeros = signs == 0
    if closed:
        runs = (zeros & ~np.roll(zeros, 1, axis=1)).sum(axis=1)
        all_on = zeros.all(axis=1)
        if all_on.any():
            runs[all_on] = 1
    else:
        runs = (zeros[:, 1:] & ~zeros[:, :-1]).sum(axis=1) + zeros[:, 0]
    return (crossings + runs).astype(np.int64)
