"""Core algorithms: events, vector clocks, the regular and lazy
happens-before relations, fingerprints, caches and theorem checkers."""

from .cache import FingerprintCache
from .dependence import conflicts, conflicts_lazy, may_be_coenabled
from .events import (
    BLOCKING_KINDS,
    Event,
    MODIFYING_KINDS,
    MUTEX_KINDS,
    Op,
    OpKind,
)
from .fingerprint import FingerprintChain, canonical_hbr
from .hb import DualClockEngine
from .relations import PartialOrder
from .vector_clock import VectorClock, tuple_concurrent, tuple_leq

__all__ = [
    "BLOCKING_KINDS",
    "DualClockEngine",
    "Event",
    "FingerprintCache",
    "FingerprintChain",
    "MODIFYING_KINDS",
    "MUTEX_KINDS",
    "Op",
    "OpKind",
    "PartialOrder",
    "VectorClock",
    "canonical_hbr",
    "conflicts",
    "conflicts_lazy",
    "may_be_coenabled",
    "tuple_concurrent",
    "tuple_leq",
]
