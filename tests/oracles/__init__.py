"""Reference implementations kept only to check the production code.

Each oracle is the straightforward scalar form of a routine that
``src/repro`` runs as whole-array passes; differential tests compare the
two on the same inputs.
"""
