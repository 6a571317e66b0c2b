"""``python -m fairppm <command>``: the same entry point as the ``fairppm`` script."""

import sys

from .cli import main

__all__: list = []

if __name__ == "__main__":
    sys.exit(main())
