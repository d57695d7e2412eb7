"""Characteristic-coordinate solver for a nonlocal breaking-wave equation,
with the flow-map machinery and diagnostics that verify its guarantees."""

from .grid import *
from .kernels import *
from .lagrangian import *
from .flowmap import *
from .diagnostics import *
from .profiles import *
from .verification import *

__version__ = "0.1.0"
