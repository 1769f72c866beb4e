"""Fixed functions of pointwise self-maps, and a threshold-split dose optimizer."""

from .function_space import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .iteration import *  # noqa: F401,F403
from .fmo import *  # noqa: F401,F403
from .phantom import *  # noqa: F401,F403

__version__ = "0.1.0"
