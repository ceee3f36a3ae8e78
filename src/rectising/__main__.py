"""``python -m rectising``: the command-line interface of `rectising.cli`."""

import sys

from .cli import main

sys.exit(main())
