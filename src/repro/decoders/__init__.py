"""Heuristic decoders operating on detector error models."""

from repro.decoders.base import Decoder
from repro.decoders.bposd import BPOSDDecoder
from repro.decoders.lookup import LookupDecoder
from repro.decoders.matching import MWPMDecoder
from repro.decoders.union_find import UnionFindDecoder

__all__ = [
    "Decoder",
    "MWPMDecoder",
    "UnionFindDecoder",
    "BPOSDDecoder",
    "LookupDecoder",
]
