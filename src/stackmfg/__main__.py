"""Run the stackmfg command line as ``python -m stackmfg``."""
import sys

from .cli import main

sys.exit(main())
