"""``python -m leakbench``: the command-line interface, runnable from a checkout."""

import sys

from .cli import main

sys.exit(main())
