"""Reference implementations that exist only to check production fast
paths (see docs/TESTING.md)."""
