"""`python -m udortho ...` runs the command-line front end (`udortho.cli`)."""

from .cli import entry

if __name__ == "__main__":
    entry()
