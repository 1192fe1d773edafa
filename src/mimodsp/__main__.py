"""``python -m mimodsp``: the same commands as the ``mimodsp`` script."""
import sys

from .cli import main

sys.exit(main())
