"""``python -m tileproof``: the same command line as the ``tileproof`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
