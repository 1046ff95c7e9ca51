"""Interconnection-network models (Section 2.1).

The paper assumes an arbitrary interconnect abstracted by a *nominal
communication delay*: the worst-case per-data-item transfer delay implied
by the network's scheduling strategy.  The real cost of a message between
two tasks on different processors is ``message_size * nominal_delay(p, q)``;
same-processor communication goes through shared memory at negligible
cost.  Communication proceeds concurrently with computation.

The evaluation platform of Section 4 is a time-multiplexed **shared bus**
with a nominal delay of one time unit per data item between any pair of
distinct processors; topology-aware models (fully connected, ring, mesh)
are provided for the "arbitrary topology" generality of the model section
— their nominal delays scale with the hop distance.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from ..errors import ModelError

__all__ = [
    "Interconnect",
    "SharedBus",
    "FullyConnected",
    "Ring",
    "Mesh2D",
    "ZeroCost",
]


class Interconnect(ABC):
    """Abstract nominal-delay interconnect for ``m`` processors."""

    def __init__(self, num_processors: int) -> None:
        if num_processors < 1:
            raise ModelError(
                f"interconnect needs at least one processor, got {num_processors}"
            )
        self.num_processors = num_processors

    @abstractmethod
    def nominal_delay(self, src: int, dst: int) -> float:
        """Worst-case per-data-item delay from processor ``src`` to ``dst``.

        Must be 0 when ``src == dst`` (shared-memory communication).
        """

    def message_cost(self, src: int, dst: int, message_size: float) -> float:
        """Worst-case transfer time of a whole message."""
        return message_size * self.nominal_delay(src, dst)

    def delay_matrix(self) -> list[list[float]]:
        """Dense ``m x m`` nominal-delay matrix (row = source processor)."""
        m = self.num_processors
        return [
            [self.nominal_delay(p, q) for q in range(m)] for p in range(m)
        ]

    def _check(self, proc: int) -> None:
        if not 0 <= proc < self.num_processors:
            raise ModelError(
                f"processor index {proc} out of range [0, {self.num_processors})"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(m={self.num_processors})"


class SharedBus(Interconnect):
    """The paper's evaluation platform: a time-multiplexed shared bus.

    Every pair of distinct processors communicates at the same nominal
    delay (default 1 time unit per data item, as in Section 4).
    """

    def __init__(self, num_processors: int, delay_per_item: float = 1.0) -> None:
        super().__init__(num_processors)
        if delay_per_item < 0:
            raise ModelError(f"delay must be >= 0, got {delay_per_item}")
        self.delay_per_item = delay_per_item

    def nominal_delay(self, src: int, dst: int) -> float:
        self._check(src)
        self._check(dst)
        return 0.0 if src == dst else self.delay_per_item


class FullyConnected(Interconnect):
    """Dedicated link between every processor pair (uniform delay)."""

    def __init__(self, num_processors: int, delay_per_item: float = 1.0) -> None:
        super().__init__(num_processors)
        if delay_per_item < 0:
            raise ModelError(f"delay must be >= 0, got {delay_per_item}")
        self.delay_per_item = delay_per_item

    def nominal_delay(self, src: int, dst: int) -> float:
        self._check(src)
        self._check(dst)
        return 0.0 if src == dst else self.delay_per_item


class Ring(Interconnect):
    """Bidirectional ring; nominal delay scales with the shortest hop count."""

    def __init__(self, num_processors: int, delay_per_hop: float = 1.0) -> None:
        super().__init__(num_processors)
        if delay_per_hop < 0:
            raise ModelError(f"delay must be >= 0, got {delay_per_hop}")
        self.delay_per_hop = delay_per_hop

    def hops(self, src: int, dst: int) -> int:
        self._check(src)
        self._check(dst)
        d = abs(src - dst)
        return min(d, self.num_processors - d)

    def nominal_delay(self, src: int, dst: int) -> float:
        return self.hops(src, dst) * self.delay_per_hop


class Mesh2D(Interconnect):
    """2-D mesh with XY routing; delay scales with Manhattan distance.

    Processor ``p`` sits at ``(p % cols, p // cols)``.
    """

    def __init__(self, rows: int, cols: int, delay_per_hop: float = 1.0) -> None:
        if rows < 1 or cols < 1:
            raise ModelError(f"mesh dimensions must be >= 1, got {rows}x{cols}")
        super().__init__(rows * cols)
        if delay_per_hop < 0:
            raise ModelError(f"delay must be >= 0, got {delay_per_hop}")
        self.rows = rows
        self.cols = cols
        self.delay_per_hop = delay_per_hop

    def coordinates(self, proc: int) -> tuple[int, int]:
        self._check(proc)
        return (proc % self.cols, proc // self.cols)

    def hops(self, src: int, dst: int) -> int:
        (x0, y0), (x1, y1) = self.coordinates(src), self.coordinates(dst)
        return abs(x0 - x1) + abs(y0 - y1)

    def nominal_delay(self, src: int, dst: int) -> float:
        return self.hops(src, dst) * self.delay_per_hop

    def __repr__(self) -> str:
        return f"Mesh2D({self.rows}x{self.cols})"


class ZeroCost(Interconnect):
    """Free communication (useful for CCR=0 ablations and as a lower bound)."""

    def nominal_delay(self, src: int, dst: int) -> float:
        self._check(src)
        self._check(dst)
        return 0.0


def square_mesh(num_processors: int, delay_per_hop: float = 1.0) -> Mesh2D:
    """Build the most square mesh holding exactly ``num_processors`` nodes."""
    side = int(math.isqrt(num_processors))
    while side > 1 and num_processors % side:
        side -= 1
    return Mesh2D(rows=side, cols=num_processors // side, delay_per_hop=delay_per_hop)
