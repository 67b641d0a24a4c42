"""End-to-end benchmark of repro; see run.py."""
