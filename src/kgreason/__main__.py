"""Module entry point so ``python -m kgreason`` runs the command line."""

import gc
import sys

if __name__ == "__main__":
    # A stage process runs without cyclic GC, from before cli is imported.
    # A loaded store is hundreds of thousands of lists and tuples that each
    # collection would walk, and reference counting alone frees a stage's
    # graph: tests/test_graph_lifetime.py keeps it out of reference cycles.
    gc.disable()
    from .cli import main

    code = main()
    # Move every live object out of the collector's reach, so that the
    # collections the interpreter runs while it shuts down skip the heap.
    gc.freeze()
    sys.exit(code)
