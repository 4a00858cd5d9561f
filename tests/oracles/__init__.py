"""Reference implementations kept as test oracles for rewritten kernels."""
