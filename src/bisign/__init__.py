"""Bidirected, signed and directionally multisigned multigraphs.

Immutable multigraph types with half-edge addressing, the maps between the
sign overlays, certificate-producing balance / antibalance / uniformization
checks, brute-force testing oracles, seeded random graphs, and a line-format CLI.
"""

from . import balance, convert, core, uniform
from .core import *
from .convert import *
from .balance import *
from .uniform import *

__all__ = core.__all__ + convert.__all__ + balance.__all__ + uniform.__all__
