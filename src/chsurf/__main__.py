"""``python -m chsurf ...`` runs the ``chsurf`` command-line tool."""

from .cli import main

if __name__ == "__main__":
    main()
