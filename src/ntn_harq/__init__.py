"""HARQ transport-block scheduling over non-terrestrial IoT links.

Subframe-level timelines, link math and throughput models for LTE-M and
NB-IoT uplinks/downlinks carried over LEO satellites, covering both the
legacy fixed-delay scheduling and variable per-TB delay scheduling.

The submodules are the API; this package re-exports nothing.
"""

__version__ = "0.1.0"
