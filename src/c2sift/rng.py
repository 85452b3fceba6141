"""Deterministic RNG substream derivation.

Every random choice in the package flows from one integer seed. Substreams
are derived through ``numpy.random.SeedSequence`` spawn keys so that work
split across trees, folds, hosts, or resamples reproduces identically no
matter how it is scheduled. The first key component namespaces the
subsystem to keep streams from colliding.
"""
from __future__ import annotations

import numpy as np

NS_SYNTH = 1
NS_FOREST = 2
NS_FOLDS = 3
NS_BOOTSTRAP = 4
NS_IMPORTANCE = 5
NS_STACK = 6
NS_CV = 8
NS_PIPELINE = 9


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the substream addressed by ``(seed, key)``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def child_seed(seed: int, *key: int) -> int:
    """Derive a plain integer seed for a child component."""
    state = np.random.SeedSequence(seed, spawn_key=tuple(key)).generate_state(1, np.uint64)
    return int(state[0])
