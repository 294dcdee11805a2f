"""Disk substrate: paged vector files and per-query page-access accounting."""

from repro.storage.pagefile import (
    BYTES_PER_COMPONENT,
    DEFAULT_PAGE_SIZE,
    AccessCounter,
    PageFile,
    VectorReader,
    VectorStore,
)

__all__ = [
    "AccessCounter",
    "BYTES_PER_COMPONENT",
    "DEFAULT_PAGE_SIZE",
    "PageFile",
    "VectorReader",
    "VectorStore",
]
