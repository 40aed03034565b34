"""``python -m qncalc``: the command-line interface of :mod:`qncalc.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
