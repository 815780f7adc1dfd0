"""Content: blocks, catalogs and request popularity.

* :mod:`repro.content.blocks` — chunking data into content-addressed
  blocks with a flat DAG root,
* :mod:`repro.content.catalog` — the population of content items, their
  publishers, lifetimes and request popularity.

The traffic engine that requests this content lives in
:mod:`repro.workload.engine`.
"""

from repro.content.blocks import chunk_data, DagObject
from repro.content.catalog import ContentCatalog, ContentItem

__all__ = [
    "ContentCatalog",
    "ContentItem",
    "DagObject",
    "chunk_data",
]
