"""Structure analysis of finite-dimensional quantum channels.

Given a channel in Kraus form, this package computes the recurrent/transient
splitting of the underlying space, decomposes the recurrent part into
minimal enclosures, groups them into blocks connected by partial isometries,
and parametrizes every invariant state of the channel in block coordinates.

Each module's ``__all__`` is its public surface; this package exports their
union.
"""

from . import channels, errors, linalg, serialize, spectral, structure
from .channels import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .linalg import *  # noqa: F401,F403
from .serialize import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .structure import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *linalg.__all__,
    *channels.__all__,
    *spectral.__all__,
    *structure.__all__,
    *serialize.__all__,
    "__version__",
]
