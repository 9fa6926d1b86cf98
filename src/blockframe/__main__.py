"""`python -m blockframe`: the same commands as the `blockframe` entry point."""

from .cli import main

raise SystemExit(main())
