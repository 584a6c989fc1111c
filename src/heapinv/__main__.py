"""``python -m heapinv``: the same command line as the ``heapinv`` script."""

import sys

from .cli import main

sys.exit(main())
