"""Module entry point so ``python -m kgreason`` runs the command line."""

import gc
import sys

from .cli import main

if __name__ == "__main__":
    code = main()
    # Move every live object out of the collector's reach, so that the
    # collections the interpreter runs while it shuts down skip the heap.
    gc.freeze()
    sys.exit(code)
