"""`python -m loopsoup ...` runs the command line of ``loopsoup.cli``."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
