"""Shared fixtures: the small closed-form models used across the suite.

All four are 1x1 so every expected value is checkable by hand:

* ``m0``       {0.5, 1, 1, 1}     strictly passive, certificate set [0.5, 2]
* ``m1``       {0.5, 1, 0.5, 1}   strictly passive, X_min = (2 - sqrt 3)/2
* ``m_flat``   {0, 0, 0, 1}       static unit gain, margin sup = 1
* ``m_neg``    {0.5, 1, 1, -0.2}  stable but not passive

``real_passive_system`` is a factory for real-data strictly passive
models of any size, the real Gaussian twin of
``experiments.random_passive_system`` (which draws complex data only).
"""

import numpy as np
import pytest

from passirad import StateSpaceModel
from passirad.kyp import build_W


@pytest.fixture
def m0() -> StateSpaceModel:
    return StateSpaceModel([[0.5]], [[1.0]], [[1.0]], [[1.0]])


@pytest.fixture
def m1() -> StateSpaceModel:
    return StateSpaceModel([[0.5]], [[1.0]], [[0.5]], [[1.0]])


@pytest.fixture
def m_flat() -> StateSpaceModel:
    return StateSpaceModel(
        np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)), np.eye(1)
    )


@pytest.fixture
def m_neg() -> StateSpaceModel:
    return StateSpaceModel([[0.5]], [[1.0]], [[1.0]], [[-0.2]])


def _real_passive_system(n: int, m: int, seed: int, margin: float = 0.25) -> StateSpaceModel:
    """Scale a real Gaussian [A B] to norm 1 - margin, then double a
    diagonal boost of D until lambda_min W(I) >= margin."""
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((n + m, n + m))
    A, B, C, D = S[:n, :n], S[:n, n:], S[n:, :n], S[n:, n:]
    s = np.linalg.norm(np.hstack([A, B]), 2)
    if s > 1.0 - margin:
        A, B = A * ((1.0 - margin) / s), B * ((1.0 - margin) / s)
    boost = margin
    for _ in range(80):
        model = StateSpaceModel(A, B, C, D + boost * np.eye(m))
        if np.linalg.eigvalsh(build_W(model, np.eye(n)))[0] >= margin:
            return model
        boost *= 2.0
    raise AssertionError("diagonal boost did not reach the requested margin")


@pytest.fixture
def real_passive_system():
    return _real_passive_system
