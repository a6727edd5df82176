"""Kernel arithmetic, powered-number counting, and certified two-part splits.

Each public name is imported from the module that defines it and lists
it in its ``__all__``: ``kernsplit.kernel``, ``kernsplit.powered``,
``kernsplit.decompose`` and ``kernsplit.oracle``.  ``import kernsplit``
imports no submodule, so a command loads only what it runs.
"""

__version__ = "0.1.0"
