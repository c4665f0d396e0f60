"""
qrlev: leverage scores from QR decompositions, controlled matrix
perturbations, and evaluators for the perturbation bounds that govern
leverage-score accuracy.

Each public name has one import path, its home module:
`from qrlev.leverage import leverage_qr`, `from qrlev.generate import
generate`. The package itself re-exports nothing.
"""

__version__ = "0.1.0"
