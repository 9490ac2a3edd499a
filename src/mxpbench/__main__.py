"""``python -m mxpbench``: the command line."""

from .bench import console_main

if __name__ == "__main__":
    console_main()
