"""Adiabatic-evolution distance bounds, minimum runtimes, and TSP encodings.

The package splits into cleanly layered modules:

  tsp        closed-tour instances, tour/tuple codecs, exact tour statistics
  hilbert    basis specs, state vectors, matrix-free Hamiltonian operators
  evolution  interpolation schedules, fixed-step unitary integration
  bounds     start-state spread, runtime thresholds, distance-bound audits,
             spectral-gap scans
  models     marked-state search and three TSP encodings as ready bundles
  cli        the ``adiabound`` command line driver

The package exports each module's ``__all__``, and nothing else but
``__version__``.
"""
from . import bounds, evolution, hilbert, models, tsp
from .bounds import *
from .evolution import *
from .hilbert import *
from .models import *
from .tsp import *

__version__ = "0.1.0"

__all__ = ["__version__", *tsp.__all__, *hilbert.__all__, *evolution.__all__,
           *bounds.__all__, *models.__all__]
