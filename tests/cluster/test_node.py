"""Unit tests for Node resource accounting."""

import threading

import pytest

from repro.cluster import Node


class TestNodeBasics:
    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Node("bad", 0, 8.0)
        with pytest.raises(ValueError):
            Node("bad", 4, 0.0)

    def test_allocate_and_release(self):
        node = Node("n1", 4, 16.0)
        alloc = node.allocate(2, 4.0)
        assert alloc is not None
        assert node.free_cores == 2
        assert node.free_memory_gb == 12.0
        node.release(alloc)
        assert node.free_cores == 4
        assert node.free_memory_gb == 16.0

    def test_allocate_refuses_overcommit(self):
        node = Node("n1", 2, 4.0)
        assert node.allocate(3) is None
        assert node.allocate(1, 5.0) is None
        assert node.free_cores == 2

    def test_negative_request_rejected(self):
        node = Node("n1", 2, 4.0)
        with pytest.raises(ValueError):
            node.allocate(-1)

    def test_double_release_raises(self):
        node = Node("n1", 2, 4.0)
        alloc = node.allocate(1)
        node.release(alloc)
        with pytest.raises(ValueError):
            node.release(alloc)


class TestNodeConcurrency:
    def test_concurrent_allocation_never_overcommits(self):
        node = Node("n1", 16, 64.0)
        grabbed = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            for _ in range(50):
                alloc = node.allocate(1, 1.0)
                if alloc is not None:
                    grabbed.append(alloc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Exactly 16 single-core allocations can succeed.
        assert len(grabbed) == 16
        assert node.free_cores == 0
        for alloc in grabbed:
            node.release(alloc)
        assert node.free_cores == 16
