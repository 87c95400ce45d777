"""``python -m fbmclink``: the command-line interface (see cli.main)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
