"""Set-up path timed by bench.setup_seconds in a fresh interpreter.

Imports burstrx, builds and validates the configuration given as JSON in the
first argument, and constructs a BurstReceiver.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from burstrx import config  # noqa: E402
from burstrx.receiver import BurstReceiver  # noqa: E402

BurstReceiver(config.from_dict(json.loads(sys.argv[1])))
