"""`python -m cycle_census`: the command-line interface (see cli.py)."""

from .cli import console_main

console_main()
