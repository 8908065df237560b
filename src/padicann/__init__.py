"""Exact p-adic machinery for counting points on curves via disks and annuli."""

from .padic import DEFAULT_PRECISION, PAdic

__version__ = "0.1.0"

__all__ = ["PAdic", "DEFAULT_PRECISION", "__version__"]
