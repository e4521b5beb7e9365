"""Packet streams, constant-packet windows and traffic matrices.

This package turns streams of (time, source, destination) packet events
into the paper's analysis objects:

* :class:`Packets` — a column-oriented packet stream;
* :func:`constant_packet_windows` — the paper's ``N_V``-packet windowing
  (constant packet count, variable time), plus constant-time windowing for
  the ablation;
* :class:`TrafficMatrixView` — a traffic matrix with the Fig-1 quadrant
  decomposition around an internal address block;
* :func:`network_quantities` — every aggregate in Table II, computed with
  the matrix formulas and invariant under anonymization;
* :class:`WindowArchive` — the anonymized on-disk window store behind the
  paper's ``2^17 -> 2^30`` hierarchical sums.
"""

from .archive import WindowArchive, WindowRecord
from .packet import Packets
from .window import Window, constant_packet_windows, constant_time_windows
from .matrix import TrafficMatrixView, build_traffic_matrix, quadrant_occupancy
from .quantities import NetworkQuantities, network_quantities

__all__ = [
    "WindowArchive",
    "WindowRecord",
    "Packets",
    "Window",
    "constant_packet_windows",
    "constant_time_windows",
    "TrafficMatrixView",
    "build_traffic_matrix",
    "quadrant_occupancy",
    "NetworkQuantities",
    "network_quantities",
]
