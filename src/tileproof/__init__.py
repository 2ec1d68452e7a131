"""tileproof: guillotine-tiling terms for two composition laws, interchange
moves, replayable proof certificates, word-equality decision, and finite
double-semigroup model checks."""

from .terms import *
from .moves import *
from .decision import *
from .models import *
from .formats import *

__version__ = "0.1.0"
