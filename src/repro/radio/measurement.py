"""Peer proximity measurement: turning radio readings into rankings.

Section VI of the paper defines the edge weights of the weighted proximity
graph as *mutual ranks*: each user sorts its connected peers by RSS
(strongest first) and the weight of edge ``(a, b)`` is the minimum of a's
rank in b's list and b's rank in a's list.  :class:`ProximityMeter`
implements the per-user half of that: given a user and its peers, produce
the RSS-sorted ranking.
"""

from __future__ import annotations

import math
from typing import Protocol, Sequence

from repro.datasets.base import PointDataset
from repro.errors import ConfigurationError
from repro.radio.rss import IdealRSSModel, RSSModel


class ProximityModel(Protocol):
    """Anything producing a larger-is-closer reading from a distance."""

    def rss(self, distance: float) -> float:
        """Signal-strength reading at ``distance`` (larger = closer)."""
        ...


class ProximityMeter:
    """Measures peer closeness for users of a static population.

    Parameters
    ----------
    dataset:
        The user positions (ids are dataset indexes).
    model:
        The radio model; defaults to the paper's ideal inverse-distance
        RSS.  Pass a :class:`~repro.radio.rss.LogDistanceRSSModel` with
        shadowing, or a :class:`~repro.radio.tdoa.TDOAModel`, for noisy or
        TDOA-based rankings.
    """

    def __init__(self, dataset: PointDataset, model: RSSModel | None = None) -> None:
        self._dataset = dataset
        self._model = model if model is not None else IdealRSSModel()

    def reading(self, user: int, peer: int) -> float:
        """The radio reading ``user`` observes for ``peer`` (larger = closer)."""
        if user == peer:
            raise ConfigurationError("a user cannot measure itself")
        # sqrt of the squared distance (not hypot): the exact same floating
        # operations the WPG kernel (repro.graph.build.directed_picks)
        # performs, so scalar and batch readings — and therefore
        # rankings — are bit-identical.
        distance = math.sqrt(self._dataset[user].squared_distance_to(self._dataset[peer]))
        return self._model.rss(distance)

    def rank_peers(self, user: int, peers: Sequence[int]) -> list[int]:
        """``peers`` sorted by closeness to ``user`` (closest first).

        Ties are broken by peer id so rankings are deterministic.
        """
        readings = {peer: self.reading(user, peer) for peer in peers}
        return sorted(peers, key=lambda p: (-readings[p], p))

    def ranks(self, user: int, peers: Sequence[int]) -> dict[int, int]:
        """1-based rank of each peer in ``user``'s closeness ordering.

        Rank 1 is the closest peer — exactly the quantity the WPG builder
        takes the pairwise minimum of.
        """
        ordered = self.rank_peers(user, peers)
        return {peer: rank for rank, peer in enumerate(ordered, start=1)}
