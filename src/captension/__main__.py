"""`python -m captension ...`: the same command line as `captension`."""

import sys

from .harness.cli import main

if __name__ == "__main__":
    sys.exit(main())
