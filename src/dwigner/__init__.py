"""Deformed Wigner ensembles: simulation, spectra and exact path counting."""

__version__ = "0.1.0"
