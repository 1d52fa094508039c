"""End-to-end benchmark of the VAP request path (see run.py)."""
