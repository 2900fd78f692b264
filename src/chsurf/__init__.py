"""Exact-arithmetic toolkit for cyclic-harmonic curves and circular surfaces.

The package builds the plane curves r(phi) = cos(n*phi/d) + a with exact
rational data, derives their implicit equations and singularity
multiplicities symbolically, classifies the surfaces swept out by circles
of a two-point family meeting such a curve, and exports triangle meshes of
those surfaces.  See the ``chsurf`` command-line tool for the user-facing
entry points and ``chsurf.verify`` for the self-check suites.

Each name lives in its own module and is imported from there, e.g.
``from chsurf.surface import classify``.  ``import chsurf`` loads none of
them, so a process imports only the modules it uses.
"""

__version__ = "0.1.0"
