"""Spans around the calls into each module's public functions.

The tracer patches, for the length of a traced run, the names that each
caller resolves at call time (``pipeline.solve_policy``, ``mlp.loss_and_gradient``,
``StiffnessDetector.update``, ...).  Every call becomes a span with a name, a
start, an end, a parent and the block of the run it happened in.  Spans are
kept in compact arrays until the run ends; nothing is written while timing.
"""

from __future__ import annotations

from array import array
from time import perf_counter_ns

import numpy as np


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.blocks: list[str] = []
        self._block = -1
        self.name = array("i")
        self.parent = array("i")
        self.block = array("b")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counts: dict[tuple[str, str], float] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def set_block(self, block: str) -> None:
        """Tag the spans that follow with the run's current block."""
        if block not in self.blocks:
            self.blocks.append(block)
        self._block = self.blocks.index(block)

    def wrap(self, owner, attr: str, name: str, count=None):
        """Replace ``owner.attr`` by a recording wrapper until ``restore``.

        ``count(result)`` may return counters to add up per block.
        """
        inner = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        nid = self._name_id(name)
        names, parents, blocks = self.name, self.parent, self.block
        starts, ends, stack = self.start, self.end, self._stack

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            blocks.append(self._block)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = inner(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if count is not None:
                block = self.blocks[self._block]
                for key, value in count(result).items():
                    self.counts[block, key] = self.counts.get((block, key), 0) + value
            return result

        self._patches.append((owner, attr, inner))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, inner in reversed(self._patches):
            setattr(owner, attr, inner)
        self._patches.clear()

    def spans(self) -> "SpanTable":
        return SpanTable(self)


class SpanTable:
    """Numpy view of the recorded spans, for per-layer figures."""

    def __init__(self, tracer: Tracer) -> None:
        self.names = tracer.names
        self.blocks = tracer.blocks
        self.name = np.frombuffer(tracer.name, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.block = np.frombuffer(tracer.block, dtype=np.int8).copy()
        start = np.frombuffer(tracer.start, dtype=np.int64)
        end = np.frombuffer(tracer.end, dtype=np.int64)
        self.duration_s = (end - start) * 1e-9
        child = self.parent >= 0
        covered = np.bincount(
            self.parent[child], weights=self.duration_s[child], minlength=self.name.size
        )
        self.self_s = self.duration_s - covered

    def select(self, name: str, block: str, parent: str | None = None) -> np.ndarray:
        """Indices of spans called ``name`` in ``block`` (optionally under ``parent``)."""
        if name not in self.names or block not in self.blocks:
            return np.empty(0, dtype=np.int64)
        mask = (self.name == self.names.index(name)) & (
            self.block == self.blocks.index(block)
        )
        if parent is not None:
            pid = self.names.index(parent) if parent in self.names else -2
            has_parent = self.parent >= 0
            parent_name = np.full(self.name.size, -3)
            parent_name[has_parent] = self.name[self.parent[has_parent]]
            mask &= parent_name == pid
        return np.flatnonzero(mask)

    def total_s(self, name: str, block: str, parent: str | None = None) -> float:
        return float(self.duration_s[self.select(name, block, parent)].sum())

    def mean_s(self, name: str, block: str, parent: str | None = None) -> float:
        idx = self.select(name, block, parent)
        if idx.size == 0:
            raise ValueError(f"no {name!r} spans in block {block!r}")
        return float(self.duration_s[idx].mean())

    def mean_self_s(self, name: str, block: str) -> float:
        idx = self.select(name, block)
        if idx.size == 0:
            raise ValueError(f"no {name!r} spans in block {block!r}")
        return float(self.self_s[idx].mean())

    def count(self, name: str, block: str) -> int:
        return int(self.select(name, block).size)
