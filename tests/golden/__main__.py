"""``PYTHONPATH=src python -m tests.golden`` rewrites the golden digests."""

import sys

from . import main

sys.exit(main())
