"""Spatial indexes used to build proximity graphs and answer LBS queries."""

from repro.spatial.grid import GridIndex

__all__ = ["GridIndex"]
