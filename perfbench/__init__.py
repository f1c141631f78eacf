"""End-to-end benchmark of the ERASER reproduction (see README.md)."""
