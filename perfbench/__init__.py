"""One-CPU benchmark of the validation engine (see perfbench/README.md)."""
