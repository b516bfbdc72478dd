"""`python -m fbl`: the fbl command line (see fbl.cli)."""

from .cli import main

if __name__ == "__main__":
    main()
