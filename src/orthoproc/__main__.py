"""``python -m orthoproc <command> ...`` runs the same CLI as the orthoproc script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
