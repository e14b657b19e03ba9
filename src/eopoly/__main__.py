"""``python -m eopoly``: the same command line as the ``eopoly`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
