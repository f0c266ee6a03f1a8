"""``python -m orthoproc.cli <command> ...`` runs the same CLI as ``python -m orthoproc``."""

import sys

from . import main

if __name__ == "__main__":
    sys.exit(main())
