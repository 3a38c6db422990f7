"""Frozen reference values shared by the test modules.

Test modules import this by its own name, never a module named conftest:
a run that also collects another directory's conftest.py (perfbench/tests)
would otherwise import that file under the same name.
"""

# V-hat(0) for the unit gaussian, (2 pi)^{3/2}; frozen reference value
B_GAUSS = 15.749609945722419
