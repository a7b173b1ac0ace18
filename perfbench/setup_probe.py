"""What every symtoc command pays before its work: import symtoc and parse the config.

    python3 perfbench/setup_probe.py CONFIG

run.py times this script from process start to exit, in a fresh interpreter.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import symtoc.cli  # noqa: E402,F401
from symtoc.config import parse_config  # noqa: E402

import conveyor  # noqa: E402

if __name__ == "__main__":
    conveyor.register()
    parse_config(sys.argv[1])
