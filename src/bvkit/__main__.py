"""``python -m bvkit ...`` runs the bvkit command line."""

from .cli import main

if __name__ == "__main__":
    main()
