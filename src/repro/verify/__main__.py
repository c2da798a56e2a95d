"""``python -m repro.verify`` — see :mod:`repro.verify`."""

import sys

from . import main

sys.exit(main())
