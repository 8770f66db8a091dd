"""``python -m minkclust``: the command-line interface of ``minkclust.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
