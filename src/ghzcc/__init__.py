"""Three-party promise-game toolkit.

Simulates the entanglement-assisted two-bit protocol for the parity-of-ANDs
promise game, runs the classical three-bit and count protocols, and proves
by exhaustive search and by case replay that no two-bit classical protocol
exists at length 3.

Importing the package loads no submodule: import each name from the module
that defines it (`from ghzcc.bitcore import f_ghz`).
"""

__version__ = "0.1.0"
