import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# this checkout's library first, so a plain `python -m pytest` tests it and
# not another installed copy; then the test helpers
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
