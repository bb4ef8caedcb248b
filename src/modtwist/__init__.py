"""modtwist: the 2-factorization calculus of PSL(2,Z) and its applications.

Decides existence, counts and constructs factorizations of modular group
elements into products of two positive Dehn twists, classifies the
cyclic-diagram symmetries that govern them, and enumerates the necklace
diagrams and junction words of maximal real elliptic Lefschetz fibrations
and real trigonal M-curves.
"""

# the package exports exactly what each module's __all__ names
from .diagrams import *
from .errors import *
from .factorization import *
from .mcurve import *
from .necklace import *
from .obstructions import *
from .psl2 import *
from .skeleton import *

__version__ = "0.1.0"
