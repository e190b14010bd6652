"""`python -m captension.harness.cli ...`.  cli is a package, so runpy runs
this module without warning though importing `captension` loaded cli."""

import sys

from . import main

if __name__ == "__main__":
    sys.exit(main())
