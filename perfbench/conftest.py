"""Puts the program source and the benchmark modules on the import path
for the benchmark's own tests (``python3 -m pytest perfbench``)."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
sys.dont_write_bytecode = True
