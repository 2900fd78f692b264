"""Empty: a congruence is fixed by ``SurfaceSpec.q`` in :mod:`chsurf.surface`.

The module stays importable for one reason: ``bench/worker.py`` imports
and traces it.  It goes when ROADMAP item 9's benchmark change drops that
import.
"""
