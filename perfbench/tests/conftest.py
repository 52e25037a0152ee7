import sys
from pathlib import Path

# The benchmark's modules import each other as top-level names, the way
# they do when run as scripts from perfbench/.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
