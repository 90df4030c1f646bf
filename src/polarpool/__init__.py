"""Deterministic engine for circular and superelliptical market makers.

Concentrated liquidity with polar-coordinate ticks, Cartesian and polar
swap routes, liquidity fingerprints, LP payoffs, and the vertical-spread
depeg hedge. All public arithmetic is 18-digit fixed point so identical
inputs give bit-identical outputs on any platform.
"""

__version__ = "0.1.0"
