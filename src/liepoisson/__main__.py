"""``python -m liepoisson``: the command-line interface of ``cli``."""

from .cli import main

if __name__ == "__main__":
    main()
