"""``python -m chainacl``: the same entry point as the ``chainacl`` script."""

import sys

from chainacl.cli import main

if __name__ == "__main__":
    sys.exit(main())
