"""Wall-clock benchmark of this Python system (see README.md)."""
