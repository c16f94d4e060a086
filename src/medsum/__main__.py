"""`python -m medsum ...` runs the `medsum` command line."""

from .cli import run

if __name__ == "__main__":
    run()
