"""`python -m gradus ...` runs the gradus command line."""
from .cli import main

if __name__ == "__main__":
    main()
