"""Unit tests for the multi-resource pool."""

import pytest

from repro.node.resources import (
    InsufficientResources,
    ResourceKind,
    ResourcePool,
    ResourceSpec,
)


class TestDeclaration:
    def test_of_shorthand(self):
        pool = ResourcePool.of(bandwidth=100.0, memory=64.0)
        assert pool.capacity("bandwidth") == 100.0
        assert "memory" in pool

    def test_duplicate_declaration_rejected(self):
        pool = ResourcePool.of(cpu=1.0)
        with pytest.raises(ValueError):
            pool.declare(ResourceSpec("cpu", 2.0))

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResourceSpec("x", -1.0)

    def test_undeclared_access_raises(self):
        pool = ResourcePool()
        with pytest.raises(KeyError):
            pool.available("gpu")


class TestConsumable:
    def test_allocate_release_cycle(self):
        pool = ResourcePool.of(bandwidth=10.0)
        pool.allocate({"bandwidth": 4.0})
        assert pool.available("bandwidth") == 6.0
        assert pool.used("bandwidth") == 4.0
        pool.release({"bandwidth": 4.0})
        assert pool.available("bandwidth") == 10.0

    def test_atomic_allocation_failure(self):
        pool = ResourcePool.of(a=10.0, b=1.0)
        with pytest.raises(InsufficientResources):
            pool.allocate({"a": 5.0, "b": 2.0})
        # nothing was taken
        assert pool.available("a") == 10.0

    def test_over_release_raises(self):
        pool = ResourcePool.of(a=10.0)
        pool.allocate({"a": 1.0})
        with pytest.raises(RuntimeError):
            pool.release({"a": 2.0})

    def test_fits_undeclared_resource_false(self):
        pool = ResourcePool.of(cpu=1.0)
        assert not pool.fits({"gpu": 1.0})

    def test_availability_vector(self):
        pool = ResourcePool.of(a=5.0, b=3.0)
        pool.allocate({"a": 2.0})
        assert pool.availability_vector() == {"a": 3.0, "b": 3.0}


class TestLevel:
    def level_pool(self, level=3.0):
        pool = ResourcePool()
        pool.declare(ResourceSpec("security", level, ResourceKind.LEVEL))
        return pool

    def test_level_satisfied_by_threshold(self):
        pool = self.level_pool(3.0)
        assert pool.fits({"security": 2.0})
        assert pool.fits({"security": 3.0})
        assert not pool.fits({"security": 4.0})

    def test_level_not_consumed(self):
        pool = self.level_pool(3.0)
        pool.allocate({"security": 2.0})
        pool.allocate({"security": 2.0})
        assert pool.available("security") == 3.0
        assert pool.used("security") == 0.0

    def test_release_ignores_levels(self):
        pool = self.level_pool(3.0)
        pool.allocate({"security": 1.0})
        pool.release({"security": 1.0})  # no error, no effect
        assert pool.available("security") == 3.0

    def test_mixed_demand(self):
        pool = ResourcePool.of(bandwidth=10.0)
        pool.declare(ResourceSpec("security", 2.0, ResourceKind.LEVEL))
        assert pool.fits({"bandwidth": 5.0, "security": 2.0})
        pool.allocate({"bandwidth": 5.0, "security": 2.0})
        assert pool.available("bandwidth") == 5.0
