"""Desk-scale laboratory for dual attacks on binary linear-code decoding."""

__version__ = "0.1.0"

__all__ = ["__version__"]
