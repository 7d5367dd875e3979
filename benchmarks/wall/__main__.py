"""``python -m benchmarks.wall``: see :mod:`benchmarks.wall.run`."""

import sys

from benchmarks.wall.run import main

sys.exit(main())
