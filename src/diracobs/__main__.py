"""``python -m diracobs``: the ``diracobs`` command line."""

import sys

from .exprcli import main

if __name__ == "__main__":
    sys.exit(main())
