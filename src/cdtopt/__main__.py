"""Entry point of ``python -m cdtopt``: the ``cdtopt`` command line."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
