"""``python -m fapft ARGS`` runs the ``fapft`` command line."""

from .cli import main

raise SystemExit(main())
