"""Brownian directed polymer in a Poissonian medium.

Simulation and analytics for a Brownian path in d spatial dimensions coupled
to a Poisson point field: quenched and annealed free energies, replica
overlaps, favourite-path localization, and the closed-form phase-diagram
bounds, with deterministic counter-based random streams throughout.
"""

__version__ = "0.1.0"
