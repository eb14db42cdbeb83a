"""Unit tests for RNG handling and the stopwatch."""

import time

import numpy as np
import pytest

from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.timers import Stopwatch


class TestAsRng:
    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_seed_deterministic(self):
        assert as_rng(7).random() == as_rng(7).random()

    def test_generator_passthrough(self):
        g = np.random.default_rng(1)
        assert as_rng(g) is g

    def test_seed_sequence(self):
        seq = np.random.SeedSequence(5)
        assert isinstance(as_rng(seq), np.random.Generator)

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError, match="random generator"):
            as_rng("seed")  # type: ignore[arg-type]


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(1, 4)) == 4

    def test_independent_streams(self):
        a, b = spawn_rngs(1, 2)
        assert a.random() != b.random()

    def test_deterministic_from_seed(self):
        a1, _ = spawn_rngs(9, 2)
        a2, _ = spawn_rngs(9, 2)
        assert a1.random() == a2.random()

    def test_from_generator(self):
        children = spawn_rngs(np.random.default_rng(3), 3)
        assert len(children) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            spawn_rngs(1, -1)

    def test_zero_ok(self):
        assert spawn_rngs(1, 0) == []


class TestStopwatch:
    def test_elapsed_monotone(self):
        sw = Stopwatch()
        a = sw.elapsed()
        b = sw.elapsed()
        assert b >= a >= 0

    def test_restart(self):
        sw = Stopwatch()
        time.sleep(0.01)
        sw.restart()
        assert sw.elapsed() < 0.01
