"""Reference implementations kept only to check the production code.

Each oracle is the straightforward form of a routine that ``src/repro``
runs differently -- a scalar loop where production makes whole-array
passes, or the array layout production replaced; differential tests
compare the two on the same inputs.
"""
