"""`python -m zecap ...`: the same commands as the `zecap` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
