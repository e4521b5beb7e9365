"""Online (single-pass) analysis of packet streams.

The telescope's pipeline is fundamentally streaming — its lineage papers
(refs [33]-[35]) are about sustaining billions of hypersparse updates per
second.  This package provides the online analysis layer on top of the
batch substrate:

* :class:`StreamingWindowAnalyzer` — consume packet batches, maintain the
  current constant-packet window's hierarchical matrix, and emit completed
  :class:`WindowStats` the moment each window closes.

It is single-pass: no earlier packet is ever re-read.
"""

from .analyzer import StreamingWindowAnalyzer, WindowStats

__all__ = [
    "StreamingWindowAnalyzer",
    "WindowStats",
]
