"""Wall-time benchmark of the flowcache samplers; run it as ``python3 perfbench/run.py``."""
