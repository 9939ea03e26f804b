"""Unit tests for repro.utils (rng, logging)."""

import logging

import numpy as np

from repro.utils.logging import get_logger, set_verbosity
from repro.utils.rng import make_rng


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(42).random(5)
        b = make_rng(42).random(5)
        assert np.allclose(a, b)

    def test_different_seed_different_stream(self):
        assert not np.allclose(make_rng(1).random(5), make_rng(2).random(5))

    def test_generator_passthrough(self):
        gen = np.random.default_rng(3)
        assert make_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestLogging:
    def test_logger_namespace(self):
        assert get_logger("core").name == "repro.core"
        assert get_logger("repro.timing").name == "repro.timing"
        assert get_logger().name == "repro"

    def test_set_verbosity(self):
        set_verbosity(logging.DEBUG)
        assert get_logger().level == logging.DEBUG
        set_verbosity(logging.INFO)
