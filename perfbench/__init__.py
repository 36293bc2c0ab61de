"""Layered benchmark for robustgram; run it with ``python3 -m perfbench.run``."""
