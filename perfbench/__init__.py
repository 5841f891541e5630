"""Closed-loop benchmark of the poissonenv CLI; run it with perfbench/run.py."""
