"""Utility modules: rng and validation."""

import numpy as np
import pytest

from repro.util import (
    check_index,
    check_nonnegative,
    check_positive,
    check_same_shape,
    check_square,
    check_type,
    default_rng,
    spawn_rngs,
)


class TestRng:
    def test_none_is_deterministic(self):
        assert default_rng().random() == default_rng().random()

    def test_int_seed(self):
        assert default_rng(5).random() == default_rng(5).random()
        assert default_rng(5).random() != default_rng(6).random()

    def test_generator_passthrough(self):
        g = np.random.default_rng(1)
        assert default_rng(g) is g

    def test_spawn_independent(self):
        children = spawn_rngs(7, 3)
        vals = [c.random() for c in children]
        assert len(set(vals)) == 3

    def test_spawn_deterministic(self):
        a = [g.random() for g in spawn_rngs(7, 2)]
        b = [g.random() for g in spawn_rngs(7, 2)]
        assert a == b

    def test_spawn_zero(self):
        assert spawn_rngs(1, 0) == []

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)

    def test_spawn_from_generator(self):
        children = spawn_rngs(np.random.default_rng(3), 2)
        assert len(children) == 2


class TestValidation:
    def test_check_type(self):
        check_type(1, int, "x")
        with pytest.raises(TypeError, match="int"):
            check_type("a", int, "x")
        with pytest.raises(TypeError, match="int or float"):
            check_type("a", (int, float), "x")

    def test_check_positive_nonnegative(self):
        check_positive(1, "x")
        check_nonnegative(0, "x")
        with pytest.raises(ValueError):
            check_positive(0, "x")
        with pytest.raises(ValueError):
            check_nonnegative(-1, "x")

    def test_check_index_wraps_and_bounds(self):
        assert check_index(-1, 5) == 4
        assert check_index(2, 5) == 2
        with pytest.raises(IndexError):
            check_index(5, 5)
        with pytest.raises(IndexError):
            check_index(-6, 5)

    def test_check_same_shape(self):
        a = np.zeros((2, 3))
        assert check_same_shape(a, a) == (2, 3)
        with pytest.raises(ValueError):
            check_same_shape(a, np.zeros((3, 2)))

    def test_check_square(self):
        assert check_square(np.zeros((3, 3))) == 3
        with pytest.raises(ValueError):
            check_square(np.zeros((2, 3)))

